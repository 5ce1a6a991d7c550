// ASCII table / series printers shared by the bench binaries.
//
// Benches print the same rows/series the paper's figures plot; these
// helpers keep the output format consistent and machine-greppable
// (columns separated by two spaces, one header line, aligned).
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace coolstream::analysis {

/// Column-aligned ASCII table.
class Table {
 public:
  explicit Table(std::vector<std::string> header);

  /// Adds a row (cells are pre-formatted strings).
  void row(std::vector<std::string> cells);

  void print(std::ostream& os) const;

  std::size_t rows() const noexcept { return rows_.size(); }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double with fixed precision.
std::string fmt(double value, int precision = 3);

/// Formats a fraction as a percentage ("97.3%").
std::string pct(double fraction, int precision = 1);

/// Prints a section banner ("== Fig. 5a: ... ==").
void banner(std::ostream& os, const std::string& title);

}  // namespace coolstream::analysis
