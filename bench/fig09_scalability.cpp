// Fig. 9: average continuity index against (a) system size and (b) join
// rate.
//
// Paper: the continuity index stays ~97% across system sizes and under
// join-rate bursts (flash crowds) — the self-scaling property.
//
// Peak mode (`--peak [seed] [scale_pct]`): a single run at the deployed
// system's measured peak — 40,000 concurrent viewers — driven directly
// against a System with no session churn and no log server, timing
// ns/peer-tick over a steady window.  Shard count comes from the usual
// SystemConfig resolution (COOLSTREAM_SHARDS), so the same invocation
// benches serial and sharded ticks; results go to BENCH_sim_scale.json in
// the working directory for tools/bench_record.sh, with the process's
// peak resident set (getrusage) beside the tick cost.
#include "bench_util.h"

#include <sys/resource.h>

#include <chrono>  // bench wall-time measurement only
#include <cmath>
#include <cstdio>

#include "analysis/continuity.h"
#include "analysis/session_analysis.h"

namespace {

struct SweepPoint {
  double x = 0.0;
  double continuity = 0.0;
  double ready_p50 = 0.0;
  double lag_p50 = 0.0;
  double lag_p90 = 0.0;
  std::size_t sessions = 0;
};

SweepPoint run_point(coolstream::workload::Scenario scenario,
                     std::uint64_t seed, double x) {
  using namespace coolstream;
  sim::Simulation simulation(seed);
  logging::LogServer log;
  workload::ScenarioRunner runner(simulation, scenario, &log);
  runner.run();
  const auto lag = coolstream::bench::measure_playback_lag(runner.system());
  const auto sessions = logging::reconstruct_sessions(log.parse_all());
  SweepPoint p;
  p.lag_p50 = lag.p50;
  p.lag_p90 = lag.p90;
  p.x = x;
  p.continuity = analysis::average_continuity(sessions);
  const auto delays = analysis::startup_delays(sessions);
  p.ready_p50 =
      delays.media_ready.empty() ? 0.0 : delays.media_ready.quantile(0.5);
  p.sessions = sessions.sessions.size();
  return p;
}

// ---------------------------------------------------------------------------
// Peak mode: 40,000 concurrent viewers, ns/peer-tick
// ---------------------------------------------------------------------------

int run_peak(int argc, char** argv) {
  using namespace coolstream;
  using Clock = std::chrono::steady_clock;  // lint:allow(wall-clock)
  const bench::BenchArgs args = bench::parse_args(argc, argv, 2);
  const std::size_t target = bench::scaled(40000, args);

  // Scenario only for its parameter/user/server models; the run itself
  // drives the System directly so the peak population is exact (no
  // session-duration churn) and the measured cost is the protocol tick,
  // not log traffic (no log server at 40k — the deployment's log path is
  // measured by the figure benches at normal scale).
  workload::Scenario scenario =
      workload::Scenario::steady(target, units::Duration(600.0));
  bench::peer_driven_servers(scenario, target);

  sim::Simulation simulation(args.seed);
  core::System system(simulation, scenario.params, scenario.system, nullptr);
  bench::print_header("Fig. 9 peak: ns/peer-tick at the deployed maximum",
                      args, scenario.params);
  std::cout << "target " << target << " viewers\n";

  // Join ramp: the full crowd spread evenly over the ramp window, every
  // spec drawn from the paper's user-type mix.
  const double ramp_s = 240.0;
  const double warm_end_s = ramp_s + 60.0;   // partnerships settle
  const double end_s = warm_end_s + 60.0;    // measured window
  system.start();
  for (std::size_t i = 0; i < target; ++i) {
    const double when = ramp_s * static_cast<double>(i) /
                        static_cast<double>(target);
    simulation.at(sim::Time(when), [&system, &simulation, &scenario, i] {
      const core::PeerSpec spec = scenario.users.make_spec(
          static_cast<std::uint64_t>(i), simulation.rng());
      system.join(spec);
    });
  }

  // A peer-tick is one live node serviced by one System::tick.
  std::uint64_t peer_ticks = 0;
  bool counting = false;
  const double dt = scenario.params.flow_tick;
  simulation.every(sim::Duration(dt), sim::Duration(dt), [&] {
    if (counting) peer_ticks += system.live_nodes().size();
  });

  simulation.run_until(sim::Time(warm_end_s));
  counting = true;
  const Clock::time_point t0 = Clock::now();
  simulation.run_until(sim::Time(end_s));
  const double wall_ns = static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
          .count());
  const double ns_per_peer_tick =
      peer_ticks > 0 ? wall_ns / static_cast<double>(peer_ticks) : 0.0;
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const double peak_rss_mb =
      static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux

  analysis::banner(std::cout, "peak window");
  analysis::Table t({"live viewers", "shards", "window (s)", "peer-ticks",
                     "ns/peer-tick", "blocks moved", "peak RSS (MB)"});
  t.row({std::to_string(system.live_viewer_count()),
         std::to_string(system.shard_count()),
         analysis::fmt(end_s - warm_end_s, 0), std::to_string(peer_ticks),
         analysis::fmt(ns_per_peer_tick, 1),
         std::to_string(system.stats().blocks_transferred),
         analysis::fmt(peak_rss_mb, 1)});
  t.print(std::cout);

  // Single-run JSON in the layout tools/bench_record.sh splices into the
  // checked-in BENCH_sim_scale.json trajectory.
  if (std::FILE* f = std::fopen("BENCH_sim_scale.json", "w")) {
    std::fprintf(f, "{\n  \"bench\": \"sim_scale\",\n");
    std::fprintf(f,
                 "  \"macro\": {\"peers\": %zu, \"shards\": %d, "
                 "\"window_s\": %.0f, \"peer_ticks\": %llu, "
                 "\"ns_per_peer_tick\": %.1f, \"peak_rss_mb\": %.1f}\n}\n",
                 system.live_viewer_count(), system.shard_count(),
                 end_s - warm_end_s,
                 static_cast<unsigned long long>(peer_ticks),
                 ns_per_peer_tick, peak_rss_mb);
    std::fclose(f);
  }

  bench::paper_note(
      "The measured deployment peaked near 40,000 concurrent viewers "
      "(Fig. 5); this mode proves the simulator sustains that population "
      "and prices one protocol tick at it.");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace coolstream;
  if (argc > 1 && std::string(argv[1]) == "--peak") {
    return run_peak(argc, argv);
  }
  const auto args = bench::parse_args(argc, argv);
  core::Params params;
  bench::print_header("Fig. 9: continuity vs system size and join rate",
                      args, params);

  // ---- Fig. 9a: sweep system size ----------------------------------------
  analysis::banner(std::cout, "Fig. 9a: continuity vs system size");
  analysis::Table ta({"target users", "sessions", "avg continuity",
                      "median ready (s)", "lag p50 (s)", "lag p90 (s)"});
  for (std::size_t n : {100u, 200u, 400u, 800u}) {
    const auto target = bench::scaled(n, args);
    workload::Scenario s =
        workload::Scenario::steady(target, units::Duration(1800.0));
    bench::peer_driven_servers(s, target);
    const auto p = run_point(s, args.seed + n, static_cast<double>(target));
    ta.row({std::to_string(target), std::to_string(p.sessions),
            analysis::pct(p.continuity, 2), analysis::fmt(p.ready_p50, 1),
            analysis::fmt(p.lag_p50, 0), analysis::fmt(p.lag_p90, 0)});
  }
  ta.print(std::cout);

  // ---- Fig. 9b: sweep join rate (flash-crowd amplitude) -------------------
  analysis::banner(std::cout, "Fig. 9b: continuity vs join rate");
  analysis::Table tb({"join-rate multiplier", "sessions", "avg continuity",
                      "median ready (s)", "lag p50 (s)", "lag p90 (s)"});
  const auto base_users = bench::scaled(300, args);
  for (double mult : {1.0, 2.0, 4.0, 8.0}) {
    workload::Scenario s =
        workload::Scenario::steady(base_users, units::Duration(1800.0));
    bench::peer_driven_servers(s, base_users);
    // Scale the arrival rate up while shortening sessions so the
    // population target stays comparable: pure join-rate stress.
    const double base_rate = s.arrivals.rate(0.0);
    s.arrivals = workload::RateProfile::constant(base_rate * mult);
    s.sessions.duration_mu -= std::log(mult);
    s.sessions.long_tail_prob /= mult;
    const auto p = run_point(s, args.seed + static_cast<std::uint64_t>(mult),
                             mult);
    tb.row({analysis::fmt(mult, 1), std::to_string(p.sessions),
            analysis::pct(p.continuity, 2), analysis::fmt(p.ready_p50, 1),
            analysis::fmt(p.lag_p50, 0), analysis::fmt(p.lag_p90, 0)});
  }
  tb.print(std::cout);

  bench::paper_note(
      "The continuity index holds around ~97% across system sizes and "
      "join rates (Fig. 9a/9b) — normal sessions see stable quality even "
      "under flash crowds; the stress shows up in startup, not playback.");
  return 0;
}
