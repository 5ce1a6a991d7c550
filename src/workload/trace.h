// Workload traces: the exogenous part of a broadcast's workload (who
// arrives when, with what connectivity, capacity, viewing intent and
// patience), serializable to CSV.
//
// The original study's traces are not available; per our reproduction
// plan, synthetic traces stand in for them.  Materializing the workload
// as a trace (rather than drawing it on the fly) buys three things:
//   * the same workload can be replayed against different protocol
//     configurations (a controlled A/B, as in the ablation benches);
//   * traces can be edited or produced by external tools;
//   * a recorded broadcast becomes a self-contained artifact
//     (trace + log).
//
// Only the exogenous quantities are traced.  Feedback-dependent behaviour
// (retries after an abortive join) still comes from the session model at
// replay time, because whether a retry happens depends on how the system
// treated the user.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/system.h"
#include "logging/log_server.h"
#include "sim/simulation.h"
#include "workload/scenario.h"

namespace coolstream::workload {

/// One user's exogenous workload row.
struct TraceRow {
  double join_time = 0.0;
  std::uint64_t user_id = 0;
  net::ConnectionType type = net::ConnectionType::kDirect;
  net::Ipv4Address address;
  double upload_bps = 0.0;
  /// Intended viewing duration in seconds; infinity = stays to program end.
  double duration_s = 0.0;
  /// Startup patience budget in seconds.
  double patience_s = 0.0;
};

/// Draws the exogenous workload of `scenario` as a trace (arrival times,
/// user specs, durations, patience).  Deterministic in `seed`.
std::vector<TraceRow> generate_trace(const Scenario& scenario,
                                     std::uint64_t seed);

/// Writes rows as CSV with a header.  Returns false on I/O error.
bool save_trace(const std::string& path, const std::vector<TraceRow>& rows);

/// Loads a CSV trace written by save_trace.  Returns nullopt on a missing
/// file or malformed content, which includes a NaN, infinite or negative
/// join time or upload capacity, and a NaN or negative duration or
/// patience (infinite ones are legal).
std::optional<std::vector<TraceRow>> load_trace(const std::string& path);

/// Replays a trace against a fresh System built from `scenario`'s
/// params/system config (the scenario's arrival process and user mixture
/// are ignored — the trace supplies them).  Retry behaviour still follows
/// scenario.sessions at replay time.  The constructor throws
/// std::invalid_argument when scenario.validate() does.
class TraceRunner {
 public:
  TraceRunner(sim::Simulation& simulation, Scenario scenario,
              std::vector<TraceRow> rows, logging::LogServer* log);

  /// Runs to scenario.end_time.
  void run();

  core::System& system() noexcept { return system_; }
  std::size_t rows_replayed() const noexcept { return next_row_; }

 private:
  struct SessionCtl {
    TraceRow row;
    int retries_left = 0;
    sim::EventHandle patience;
  };

  void schedule_next_row();
  void start_session(const TraceRow& row, int retries_left);
  void on_event(net::NodeId node, core::SessionEvent event);

  sim::Simulation& sim_;
  Scenario scenario_;
  std::vector<TraceRow> rows_;
  std::size_t next_row_ = 0;
  core::System system_;
  std::unordered_map<net::NodeId, SessionCtl> active_;
};

}  // namespace coolstream::workload
