// Flash crowd study: what a sudden program start does to join latency.
//
//   ./examples/flash_crowd [seed]
//
// Runs a steady broadcast, injects a 5x burst of arrivals, and compares
// startup behaviour before, during and after the crowd — the mechanism
// behind the paper's Fig. 7 and its §V-C mCache discussion.
#include <iostream>

#include "analysis/continuity.h"
#include "analysis/session_analysis.h"
#include "analysis/table.h"
#include "bench_util.h"
#include "logging/log_server.h"
#include "logging/sessions.h"
#include "sim/simulation.h"
#include "workload/scenario.h"

int main(int argc, char** argv) {
  using namespace coolstream;
  std::uint64_t seed = 7;
  if (argc > 2 || (argc == 2 && !bench::parse_whole(argv[1], seed))) {
    std::cerr << "usage: " << argv[0] << " [seed]\n";
    return 2;
  }

  // 200 steady viewers; at t=900 s a crowd of ~800 more floods in.
  workload::Scenario scenario =
      workload::Scenario::flash_crowd(200, 800, units::Duration(900.0),
                                      units::Duration(2100.0));
  scenario.system.server_count = 4;
  scenario.system.server_max_partners = 12;
  scenario.sessions.patience_min = 10.0;
  scenario.sessions.patience_mean = 20.0;

  std::cout << scenario.params.describe();
  std::cout << "\ncrowd: +800 arrivals centred at t=900 s (sigma 60 s)\n";

  sim::Simulation simulation(seed);
  logging::LogServer log;
  workload::ScenarioRunner runner(simulation, scenario, &log);

  // Watch the population live.
  analysis::banner(std::cout, "Concurrent viewers");
  analysis::Table pop({"t (s)", "viewers"});
  for (double at = 150.0; at <= scenario.end_time; at += 150.0) {
    runner.run_until(at);
    pop.row({analysis::fmt(at, 0),
             std::to_string(runner.system().live_viewer_count())});
  }
  runner.run();
  pop.print(std::cout);

  const auto sessions = logging::reconstruct_sessions(log.parse_all());

  analysis::banner(std::cout, "Startup by join window");
  const std::vector<double> edges = {0.0, 750.0, 1100.0, 2100.0};
  const auto periods = analysis::ready_delay_by_period(sessions, edges);
  const char* labels[] = {"before crowd", "during crowd", "after crowd"};
  analysis::Table t({"window", "ready sessions", "median ready (s)",
                     "p90 ready (s)"});
  for (std::size_t i = 0; i < periods.size(); ++i) {
    if (periods[i].empty()) {
      t.row({labels[i], "0", "-", "-"});
      continue;
    }
    t.row({labels[i], std::to_string(periods[i].size()),
           analysis::fmt(periods[i].quantile(0.5), 1),
           analysis::fmt(periods[i].quantile(0.9), 1)});
  }
  t.print(std::cout);

  const auto retries = analysis::retry_distribution(sessions);
  std::cout << "\nusers needing retries: "
            << analysis::pct(retries.fraction_with_retries())
            << "   never succeeded: " << retries.never_succeeded << '\n'
            << "average continuity through the crowd: "
            << analysis::pct(analysis::average_continuity(sessions), 2)
            << '\n';
  return 0;
}
