// Cross-thread determinism of full scenario runs.
//
// Independent Systems share nothing, so they can run on concurrent threads.
// This test locks that contract in: the same scenario seed must produce
// bit-identical log output and summary statistics whether the seeds run
// one after another or each on its own thread — the determinism guarantee
// the event engine must preserve.  With COOLSTREAM_SHARDS set, each of
// those Systems also runs its own shard workers.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "logging/log_server.h"
#include "sim/simulation.h"
#include "sim/time_series.h"
#include "workload/scenario.h"

namespace coolstream {
namespace {

/// Runs one small broadcast and digests everything observable: the complete
/// log stream plus the viewer step function and the system's counters.
std::string run_scenario_digest(std::uint64_t seed) {
  sim::Simulation simulation(seed);
  logging::LogServer log;
  workload::Scenario scenario =
      workload::Scenario::steady(40, units::Duration(600.0));
  scenario.end_time = 600.0;
  workload::ScenarioRunner runner(simulation, scenario, &log);
  // The viewer step function, recorded ahead of the runner's own observer.
  sim::StepCounter viewers;
  core::System& sys = runner.system();
  sys.observer = [&viewers, &simulation, inner = std::move(sys.observer)](
                     net::NodeId id, core::SessionEvent event) {
    if (event == core::SessionEvent::kJoined) viewers.add(simulation.now(), +1);
    if (event == core::SessionEvent::kLeft) viewers.add(simulation.now(), -1);
    inner(id, event);
  };
  runner.run();

  std::ostringstream out;
  out.precision(17);
  out << "users=" << runner.users_created()
      << " events=" << simulation.events_executed()
      << " now=" << simulation.now() << '\n';
  const core::SystemStats& stats = runner.system().stats();
  out << "joins=" << stats.joins << " leaves=" << stats.leaves
      << " blocks=" << stats.blocks_transferred
      << " accepts=" << stats.partnership_accepts
      << " rejects=" << stats.partnership_rejects
      << " subs=" << stats.subscriptions << '\n';
  for (const auto& [t, v] : viewers.steps()) {
    out << t << ',' << v << ';';
  }
  out << '\n';
  for (const std::string& line : log.lines()) out << line << '\n';
  return out.str();
}

TEST(DeterminismTest, SerialAndThreadedSweepsAreBitIdentical) {
  const std::vector<std::uint64_t> seeds{1, 7, 42, 2006927};

  std::vector<std::string> serial(seeds.size());
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    serial[i] = run_scenario_digest(seeds[i]);
  }

  std::vector<std::string> threaded(seeds.size());
  {
    std::vector<std::jthread> threads;
    for (std::size_t i = 0; i < seeds.size(); ++i) {
      threads.emplace_back(
          [&threaded, &seeds, i] { threaded[i] = run_scenario_digest(seeds[i]); });
    }
  }  // joins every thread

  for (std::size_t i = 0; i < seeds.size(); ++i) {
    ASSERT_FALSE(serial[i].empty());
    EXPECT_EQ(serial[i], threaded[i]) << "seed " << seeds[i];
  }

  // Repeat runs are stable too (no hidden global state).
  EXPECT_EQ(run_scenario_digest(seeds[0]), serial[0]);
}

}  // namespace
}  // namespace coolstream
