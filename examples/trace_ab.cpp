// Controlled A/B on an identical workload using the trace API.
//
//   ./examples/trace_ab [seed]
//
// Generates one synthetic workload trace (who joins when, with what
// connectivity/capacity/patience), saves it to disk, then replays the
// *same* trace against two protocol configurations — the deployed
// Coolstreaming parameters vs a single-sub-stream variant — and compares
// outcomes.  This is the experiment methodology the paper could not run
// on its production system: same users, different protocol.
#include <cmath>
#include <iostream>

#include "analysis/continuity.h"
#include "analysis/session_analysis.h"
#include "analysis/table.h"
#include "bench_util.h"
#include "logging/log_server.h"
#include "logging/sessions.h"
#include "sim/simulation.h"
#include "workload/trace.h"

namespace {

using namespace coolstream;

struct Outcome {
  double continuity = 0.0;
  double ready_p50 = 0.0;
  double retry_fraction = 0.0;
  std::size_t sessions = 0;
};

Outcome replay(const workload::Scenario& scenario,
               const std::vector<workload::TraceRow>& rows,
               std::uint64_t seed) {
  sim::Simulation simulation(seed);
  logging::LogServer log;
  workload::TraceRunner runner(simulation, scenario, rows, &log);
  runner.run();
  const auto sessions = logging::reconstruct_sessions(log.parse_all());
  Outcome out;
  out.sessions = sessions.sessions.size();
  out.continuity = analysis::average_continuity(sessions);
  const auto delays = analysis::startup_delays(sessions);
  out.ready_p50 =
      delays.media_ready.empty() ? 0.0 : delays.media_ready.quantile(0.5);
  out.retry_fraction =
      analysis::retry_distribution(sessions).fraction_with_retries();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t seed = 33;
  if (argc > 2 || (argc == 2 && !bench::parse_whole(argv[1], seed))) {
    std::cerr << "usage: " << argv[0] << " [seed]\n";
    return 2;
  }

  workload::Scenario base =
      workload::Scenario::steady(250, units::Duration(1500.0));
  base.system.server_count = 4;
  base.sessions.duration_mu = std::log(240.0);  // churny: median 4 min

  const auto rows = workload::generate_trace(base, seed);
  const std::string path = "coolstreaming_workload.csv";
  if (!workload::save_trace(path, rows)) {
    std::cerr << "cannot write " << path << '\n';
    return 1;
  }
  std::cout << "workload trace: " << rows.size() << " users -> " << path
            << "\n\n";

  // Arm A: deployed parameters (K = 4 sub-streams).
  // Arm B: single sub-stream (K = 1): no delivery diversity.
  workload::Scenario arm_a = base;
  workload::Scenario arm_b = base;
  arm_b.params.substream_count = 1;
  arm_b.params.block_rate = 8.0;

  const auto loaded = workload::load_trace(path);
  if (!loaded) {
    std::cerr << "cannot reload " << path << '\n';
    return 1;
  }
  const auto a = replay(arm_a, *loaded, seed + 1);
  const auto b = replay(arm_b, *loaded, seed + 1);

  analysis::banner(std::cout, "Same workload, two protocols");
  analysis::Table t({"metric", "K = 4 (deployed)", "K = 1 (no striping)"});
  t.row({"sessions", std::to_string(a.sessions), std::to_string(b.sessions)});
  t.row({"avg continuity", analysis::pct(a.continuity, 2),
         analysis::pct(b.continuity, 2)});
  t.row({"media-ready p50 (s)", analysis::fmt(a.ready_p50, 1),
         analysis::fmt(b.ready_p50, 1)});
  t.row({"users retrying", analysis::pct(a.retry_fraction),
         analysis::pct(b.retry_fraction)});
  t.print(std::cout);

  std::cout << "\nSame arrivals, same capacities, same patience; only the "
               "protocol differs.  Sub-stream diversity (K = 4) spreads "
               "each viewer's supply over several parents, so churn costs "
               "1/K of the rate instead of a full outage.\n";
  return 0;
}
