// Quickstart: simulate a small Coolstreaming broadcast and print what the
// measurement pipeline sees.
//
//   ./examples/quickstart [seed]
//
// Walks the whole public API end to end: build a Scenario, run it, parse
// the log server's log, reconstruct sessions, and print startup delays,
// continuity and the overlay census.
#include <iostream>

#include "analysis/continuity.h"
#include "analysis/overlay.h"
#include "analysis/session_analysis.h"
#include "analysis/table.h"
#include "bench_util.h"
#include "logging/log_server.h"
#include "logging/sessions.h"
#include "sim/simulation.h"
#include "workload/scenario.h"

int main(int argc, char** argv) {
  using namespace coolstream;

  std::uint64_t seed = 42;
  if (argc > 2 || (argc == 2 && !bench::parse_whole(argv[1], seed))) {
    std::cerr << "usage: " << argv[0] << " [seed]\n";
    return 2;
  }

  // A 20-minute broadcast holding ~300 concurrent viewers, with the
  // paper's 2006 population mix and 4 dedicated servers.
  workload::Scenario scenario =
      workload::Scenario::steady(300, units::Duration(1200.0));
  scenario.system.server_count = 4;

  std::cout << scenario.params.describe() << '\n';

  sim::Simulation simulation(seed);
  logging::LogServer log;
  workload::ScenarioRunner runner(simulation, scenario, &log);
  runner.run();

  core::System& system = runner.system();
  std::cout << "simulated " << runner.users_created() << " users, "
            << system.stats().joins << " joins, " << system.stats().leaves
            << " leaves, " << system.stats().blocks_transferred
            << " blocks transferred\n"
            << "live viewers at end: " << system.live_viewer_count() << "\n";

  // Everything below is computed from the *log*, like the paper.
  std::size_t malformed = 0;
  const auto reports = log.parse_all(&malformed);
  const auto sessions = logging::reconstruct_sessions(reports);
  std::cout << "log: " << log.size() << " lines, " << reports.size()
            << " parsed, " << malformed << " malformed; "
            << sessions.sessions.size() << " sessions from "
            << sessions.users.size() << " users\n";

  const auto delays = analysis::startup_delays(sessions);
  analysis::banner(std::cout, "Startup delays (s)");
  analysis::Table t({"metric", "p50", "p90", "n"});
  auto row = [&t](const char* name, const analysis::Ecdf& e) {
    if (e.empty()) {
      t.row({name, "-", "-", "0"});
      return;
    }
    t.row({name, analysis::fmt(e.quantile(0.5), 1),
           analysis::fmt(e.quantile(0.9), 1), std::to_string(e.size())});
  };
  row("start subscription", delays.start_subscription);
  row("media player ready", delays.media_ready);
  row("buffering wait", delays.buffering);
  t.print(std::cout);

  analysis::banner(std::cout, "Quality of service");
  std::cout << "average continuity index: "
            << analysis::pct(analysis::average_continuity(sessions), 2)
            << '\n';

  const auto overlay = analysis::measure_overlay(system.snapshot());
  analysis::banner(std::cout, "Overlay census at end of run");
  std::cout << "viewers: " << overlay.viewers
            << "  mean depth: " << analysis::fmt(overlay.mean_depth, 2)
            << "  mean partners: " << analysis::fmt(overlay.mean_partners, 2)
            << "\nparent links: server " << analysis::pct(overlay.parent_share_server)
            << ", direct/UPnP " << analysis::pct(overlay.parent_share_capable)
            << ", NAT/firewall " << analysis::pct(overlay.parent_share_weak)
            << "\nrandom (weak-weak) links: "
            << analysis::pct(overlay.random_link_fraction)
            << "  starving viewers: " << analysis::pct(overlay.starving_fraction)
            << '\n';
  return 0;
}
