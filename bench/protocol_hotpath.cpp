// Protocol hot-path trajectory bench.
//
// A full steady-state broadcast (default 2000 concurrent viewers) timed
// over a post-warm-up window, reporting ns/peer-tick and heap
// allocations/peer-tick.  A peer-tick is one live node serviced by one
// System::tick.  Allocations are split into those inside System::tick and
// those between ticks (event dispatch: joins, leaves, deliveries, reports)
// by probe events just before and right after every tick instant.  It also
// reports the heap held at the end of the window per live node (everything
// the run keeps: departed peers, event queue, log lines), in
// malloc_usable_size bytes.
//
// Results go to BENCH_protocol_hotpath.json in the working directory;
// tools/bench_record.sh appends them to the checked-in trajectory file.
//
// Usage: bench_protocol_hotpath [seed] [scale_pct]
//   scale_pct  scales the 2000-viewer population (10 = smoke run)
//
// This binary replaces global operator new/delete with counting versions
// (counting_allocator.h) so allocations/peer-tick and live heap bytes are
// measured, not estimated.  Both are functions of the seed and scale
// alone (for a given C library), which is what lets CI gate them.
#include <chrono>  // bench wall-time measurement only
#include <cstdint>
#include <cstdio>

#include "bench_util.h"
#include "counting_allocator.h"
#include "logging/log_server.h"
#include "sim/simulation.h"
#include "workload/scenario.h"

namespace coolstream::bench {
namespace {

using Clock = std::chrono::steady_clock;  // lint:allow(wall-clock)

double ns_since(Clock::time_point t0) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
          .count());
}

// ---------------------------------------------------------------------------
// Macro: full scenario, steady-state window
// ---------------------------------------------------------------------------

// Offset of the pre-tick probe before each tick instant, simulated s.
constexpr double kProbeLead = 1e-6;

struct MacroResult {
  std::size_t target_peers = 0;
  double window_s = 0.0;
  std::uint64_t peer_ticks = 0;
  double ns_per_peer_tick = 0.0;
  double allocs_per_peer_tick = 0.0;
  double tick_allocs_per_peer_tick = 0.0;     ///< inside System::tick
  double between_allocs_per_peer_tick = 0.0;  ///< the rest of the window
  double heap_bytes_per_live_peer = 0.0;      ///< at the end of the window
};

MacroResult run_macro(std::uint64_t seed, std::size_t target_peers,
                      double warm_s, double end_s) {
  sim::Simulation simulation(seed);
  logging::LogServer log;
  workload::Scenario scenario =
      workload::Scenario::steady(target_peers, units::Duration(end_s));
  scenario.end_time = end_s;
  peer_driven_servers(scenario, target_peers);
  workload::ScenarioRunner runner(simulation, scenario, &log);

  // Count peer-ticks alongside the System's own flow tick.
  std::uint64_t peer_ticks = 0;
  bool counting = false;
  const double dt = scenario.params.flow_tick;
  simulation.every(sim::Duration(dt), sim::Duration(dt), [&] {
    if (counting) peer_ticks += runner.system().live_nodes().size();
  });
  // Allocation split: the pre-tick probe marks the counter; the post-tick
  // probe, scheduled once the System has started (so it runs right after
  // the tick of the same instant), charges the difference to the tick.
  std::uint64_t tick_mark = 0;
  std::uint64_t tick_allocs = 0;
  simulation.every(sim::Duration(dt - kProbeLead), sim::Duration(dt),
                   [&] { tick_mark = g_allocations; });
  runner.run_until(0.0);  // starts the System and its periodic tick
  simulation.every(sim::Duration(dt), sim::Duration(dt), [&] {
    if (counting) tick_allocs += g_allocations - tick_mark;
  });

  runner.run_until(warm_s);  // joins, ramp-up, slab/vector capacity warm-up
  counting = true;
  const std::uint64_t allocs0 = g_allocations;
  const Clock::time_point t0 = Clock::now();
  runner.run_until(end_s);
  const double wall_ns = ns_since(t0);
  const std::uint64_t allocs = g_allocations - allocs0;
  const std::size_t live_peers = runner.system().live_nodes().size();

  MacroResult r;
  if (live_peers > 0) {
    r.heap_bytes_per_live_peer = static_cast<double>(g_live_heap_bytes) /
                                 static_cast<double>(live_peers);
  }
  r.target_peers = target_peers;
  r.window_s = end_s - warm_s;
  r.peer_ticks = peer_ticks;
  if (peer_ticks > 0) {
    r.ns_per_peer_tick = wall_ns / static_cast<double>(peer_ticks);
    r.allocs_per_peer_tick =
        static_cast<double>(allocs) / static_cast<double>(peer_ticks);
    r.tick_allocs_per_peer_tick =
        static_cast<double>(tick_allocs) / static_cast<double>(peer_ticks);
    r.between_allocs_per_peer_tick =
        static_cast<double>(allocs - tick_allocs) /
        static_cast<double>(peer_ticks);
  }
  return r;
}

// ---------------------------------------------------------------------------
// JSON output
// ---------------------------------------------------------------------------

void write_json(const MacroResult& macro) {
  std::FILE* f = std::fopen("BENCH_protocol_hotpath.json", "w");
  if (f == nullptr) return;
  std::fprintf(f, "{\n  \"bench\": \"protocol_hotpath\",\n");
  std::fprintf(f,
               "  \"macro\": {\"peers\": %zu, \"window_s\": %.0f, "
               "\"peer_ticks\": %llu, \"ns_per_peer_tick\": %.1f, "
               "\"allocs_per_peer_tick\": %.3f, "
               "\"tick_allocs_per_peer_tick\": %.3f, "
               "\"between_allocs_per_peer_tick\": %.3f, "
               "\"heap_bytes_per_live_peer\": %.0f}\n}\n",
               macro.target_peers, macro.window_s,
               static_cast<unsigned long long>(macro.peer_ticks),
               macro.ns_per_peer_tick, macro.allocs_per_peer_tick,
               macro.tick_allocs_per_peer_tick,
               macro.between_allocs_per_peer_tick,
               macro.heap_bytes_per_live_peer);
  std::fclose(f);
}

int run(int argc, char** argv) {
  const BenchArgs args = parse_args(argc, argv);
  const std::size_t peers = scaled(2000, args);
  // steady() sessions have ~10 min mean duration; the Little's-law
  // population needs ~3 means to converge, so measure 900..1500s.
  const double warm_s = 900.0;
  const double end_s = 1500.0;

  std::printf("protocol_hotpath: %zu peers, window %.0f..%.0fs\n", peers,
              warm_s, end_s);
  const MacroResult macro = run_macro(args.seed, peers, warm_s, end_s);
  std::printf("%llu peer-ticks, %.1f ns/peer-tick, %.3f allocs/peer-tick "
              "(tick %.3f, between ticks %.3f), %.0f heap bytes/live peer\n",
              static_cast<unsigned long long>(macro.peer_ticks),
              macro.ns_per_peer_tick, macro.allocs_per_peer_tick,
              macro.tick_allocs_per_peer_tick,
              macro.between_allocs_per_peer_tick,
              macro.heap_bytes_per_live_peer);
  write_json(macro);
  return 0;
}

}  // namespace
}  // namespace coolstream::bench

int main(int argc, char** argv) { return coolstream::bench::run(argc, argv); }
