// Live event replay: record a broadcast's log to disk, then analyze it
// offline — the paper's own workflow (§V-A: the log server stores reports
// into a log file; every figure is computed from that file).
//
//   ./examples/live_event_replay [seed] [log-path]
//
// Phase 1 simulates an evening broadcast and writes the raw log strings.
// Phase 2 loads the file into a fresh LogServer (as an offline analyzer
// would), reconstructs sessions and prints a broadcast report.
#include <iostream>

#include "analysis/continuity.h"
#include "analysis/lorenz.h"
#include "analysis/session_analysis.h"
#include "analysis/table.h"
#include "bench_util.h"
#include "logging/log_server.h"
#include "logging/sessions.h"
#include "sim/simulation.h"
#include "workload/scenario.h"

int main(int argc, char** argv) {
  using namespace coolstream;
  std::uint64_t seed = 27;
  if (argc > 3 || (argc > 1 && !bench::parse_whole(argv[1], seed))) {
    std::cerr << "usage: " << argv[0] << " [seed] [log-path]\n";
    return 2;
  }
  const std::string path =
      argc > 2 ? argv[2] : "coolstreaming_broadcast.log";

  // ---- Phase 1: record ----------------------------------------------------
  {
    workload::Scenario scenario =
        workload::Scenario::evening(400, units::Duration::hours(2.0));
    scenario.system.server_count = 4;
    sim::Simulation simulation(seed);
    logging::LogServer log;
    workload::ScenarioRunner runner(simulation, scenario, &log);
    runner.run();
    if (!log.save(path)) {
      std::cerr << "cannot write " << path << '\n';
      return 1;
    }
    std::cout << "recorded " << log.size() << " log strings from "
              << runner.users_created() << " users -> " << path << "\n\n";
  }

  // ---- Phase 2: offline analysis ------------------------------------------
  logging::LogServer replay;
  if (!replay.load(path)) {
    std::cerr << "cannot read " << path << '\n';
    return 1;
  }
  std::size_t malformed = 0;
  const auto reports = replay.parse_all(&malformed);
  const auto sessions = logging::reconstruct_sessions(reports);

  std::cout << "replayed " << replay.size() << " lines (" << malformed
            << " malformed)\n";

  analysis::banner(std::cout, "Broadcast report");
  std::size_t normal = 0;
  for (const auto& s : sessions.sessions) {
    if (s.is_normal()) ++normal;
  }
  const auto delays = analysis::startup_delays(sessions);
  const auto contrib = analysis::upload_contributions(sessions);
  const auto retries = analysis::retry_distribution(sessions);

  analysis::Table t({"metric", "value"});
  t.row({"users", std::to_string(sessions.users.size())});
  t.row({"sessions", std::to_string(sessions.sessions.size())});
  t.row({"normal sessions",
         std::to_string(normal) + " (" +
             analysis::pct(static_cast<double>(normal) /
                           static_cast<double>(sessions.sessions.size())) +
             ")"});
  t.row({"avg continuity index",
         analysis::pct(analysis::average_continuity(sessions), 2)});
  if (!delays.media_ready.empty()) {
    t.row({"media-ready p50 / p90 (s)",
           analysis::fmt(delays.media_ready.quantile(0.5), 1) + " / " +
               analysis::fmt(delays.media_ready.quantile(0.9), 1)});
  }
  t.row({"upload Gini",
         analysis::fmt(analysis::gini(contrib.per_user_bytes), 3)});
  t.row({"top-30% upload share",
         analysis::pct(analysis::top_share(contrib.per_user_bytes, 0.3))});
  t.row({"users that retried",
         analysis::pct(retries.fraction_with_retries())});
  t.print(std::cout);

  analysis::banner(std::cout, "Continuity by observed type");
  const auto by_type = analysis::average_continuity_by_type(sessions);
  analysis::Table ct({"type", "continuity"});
  for (int type = 0; type < net::kConnectionTypeCount; ++type) {
    ct.row({std::string(net::to_string(static_cast<net::ConnectionType>(type))),
            analysis::pct(by_type[static_cast<std::size_t>(type)], 2)});
  }
  ct.print(std::cout);
  return 0;
}
