#include "analysis/table.h"

#include <algorithm>
#include <cstdio>
#include <ostream>

namespace coolstream::analysis {

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {}

void Table::row(std::vector<std::string> cells) {
  cells.resize(header_.size());
  rows_.push_back(std::move(cells));
}

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) {
    widths[c] = header_[c].size();
  }
  for (const auto& r : rows_) {
    for (std::size_t c = 0; c < r.size(); ++c) {
      widths[c] = std::max(widths[c], r[c].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      if (c != 0) os << "  ";
      os << cells[c];
      for (std::size_t pad = cells[c].size(); pad < widths[c]; ++pad) {
        os << ' ';
      }
    }
    os << '\n';
  };
  print_row(header_);
  std::vector<std::string> rule;
  rule.reserve(header_.size());
  for (std::size_t w : widths) rule.emplace_back(w, '-');
  print_row(rule);
  for (const auto& r : rows_) print_row(r);
}

std::string fmt(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, value);
  return buf;
}

std::string pct(double fraction, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f%%", precision, fraction * 100.0);
  return buf;
}

void banner(std::ostream& os, const std::string& title) {
  os << "\n== " << title << " ==\n";
}

}  // namespace coolstream::analysis
