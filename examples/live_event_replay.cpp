// Live event replay: record a broadcast's log to disk for offline
// analysis — the paper's own workflow (§V-A: the log server stores reports
// into a log file; every figure is computed from that file).
//
//   ./examples/live_event_replay [seed] [log-path]
//
// Simulates an evening broadcast, writes the raw log strings and prints
// the coolstream_logtool commands that read the file back.
#include <iostream>

#include "bench_util.h"
#include "logging/log_server.h"
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
            << runner.users_created() << " users -> " << path << "\n\n"
            << "read it back with tools/coolstream_logtool:\n"
            << "  coolstream_logtool summary    " << path << '\n'
            << "  coolstream_logtool types      " << path << '\n'
            << "  coolstream_logtool retries    " << path << '\n'
            << "  coolstream_logtool continuity " << path << " 300\n"
            << "  coolstream_logtool sessions   " << path
            << " > sessions.csv\n";
  return 0;
}
