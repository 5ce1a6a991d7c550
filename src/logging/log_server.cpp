#include "logging/log_server.h"

#include <fstream>
#include <utility>

namespace coolstream::logging {

void LogServer::submit(const Report& report) {
  // Serialize outside the lock: formatting dominates and needs no shared
  // state, so concurrent submitters only contend on the push itself.
  std::string line = serialize(report);
  sync::MutexLock lock(mu_);
  lines_.push_back(std::move(line));
}

void LogServer::submit_raw(std::string line) {
  sync::MutexLock lock(mu_);
  lines_.push_back(std::move(line));
}

std::vector<Report> LogServer::parse_all(std::size_t* malformed) const {
  sync::MutexLock lock(mu_);
  std::vector<Report> reports;
  reports.reserve(lines_.size());
  std::size_t bad = 0;
  for (const auto& line : lines_) {
    if (auto report = parse_report(line)) {
      reports.push_back(std::move(*report));
    } else {
      ++bad;
    }
  }
  if (malformed != nullptr) *malformed = bad;
  return reports;
}

bool LogServer::save(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  sync::MutexLock lock(mu_);
  for (const auto& line : lines_) out << line << '\n';
  return static_cast<bool>(out);
}

bool LogServer::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  sync::MutexLock lock(mu_);
  while (std::getline(in, line)) {
    if (!line.empty()) lines_.push_back(line);
  }
  // A read error (say, the path is a directory) ends the loop like EOF.
  return !in.bad();
}

}  // namespace coolstream::logging
