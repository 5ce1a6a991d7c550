// The log server.
//
// "We placed a dedicated log server in the system.  Each user reports its
// activities to the log server including events and internal status
// periodically. ... The log server stores the reports received from peers
// into a log file." (§V-A)
//
// The server stores raw log strings, exactly as received; everything
// downstream (session reconstruction, figures) works from the parsed log,
// never from simulator ground truth.  Logs can be saved to / loaded from
// disk so examples can replay a previously recorded broadcast.
//
// Concurrency (DESIGN.md §13): reports reach the server only on its
// System's thread — in a sharded tick a peer's report is deferred as an
// effect and submitted by the serial flush.  The store is still
// mutex-guarded and annotated for Clang's thread-safety analysis, so
// Systems running on concurrent threads may share one instance.
// Readers (lines(), parse_all(), save()) are the analysis phase and run
// after the broadcast; the reference returned by lines() is stable only
// while no concurrent submit is in flight.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/thread_annotations.h"
#include "logging/reports.h"

namespace coolstream::logging {

/// Collects log strings from clients.
class LogServer {
 public:
  /// Serializes and stores a typed report.
  void submit(const Report& report) EXCLUDES(mu_);

  /// Stores a raw log line (used when replaying a file).
  void submit_raw(std::string line) EXCLUDES(mu_);

  /// All stored log lines in arrival order.  The reference is invalidated
  /// by a concurrent submit; call only once writers are quiescent.
  const std::vector<std::string>& lines() const noexcept EXCLUDES(mu_) {
    sync::MutexLock lock(mu_);
    return lines_;
  }

  std::size_t size() const noexcept EXCLUDES(mu_) {
    sync::MutexLock lock(mu_);
    return lines_.size();
  }
  bool empty() const noexcept EXCLUDES(mu_) { return size() == 0; }

  /// Parses every stored line.  Malformed lines are skipped and counted in
  /// `malformed` (if non-null).
  std::vector<Report> parse_all(std::size_t* malformed = nullptr) const
      EXCLUDES(mu_);

  /// Writes one log line per row to `path`.  Returns false on I/O error.
  bool save(const std::string& path) const EXCLUDES(mu_);

  /// Appends the lines of the file at `path`.  Returns false on I/O error.
  bool load(const std::string& path) EXCLUDES(mu_);

 private:
  // submit()'s one caller is core::System::report, on the System's own
  // thread: between ticks, or in the serial flush after a sharded phase.
  mutable sync::Mutex mu_;
  std::vector<std::string> lines_ GUARDED_BY(mu_);
};

}  // namespace coolstream::logging
