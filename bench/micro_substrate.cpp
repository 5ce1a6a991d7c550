// google-benchmark micro-benchmarks of the substrates: event queue, RNG,
// buffer structures, uplink sharing, wire formats.  These guard the
// hot paths that make the figure benches tractable on one core.
#include <benchmark/benchmark.h>

#include <array>
#include <cstdint>
#include <vector>

#include "core/sync_buffer.h"
#include "logging/reports.h"
#include "net/bandwidth.h"
#include "net/latency.h"
#include "sim/event_queue.h"
#include "sim/rng.h"
#include "sim/shard_workers.h"
#include "sim/simulation.h"

namespace {

using namespace coolstream;

void BM_RngUniform(benchmark::State& state) {
  sim::Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.uniform());
  }
}
BENCHMARK(BM_RngUniform);

void BM_RngZipf(benchmark::State& state) {
  sim::Rng rng(2);
  const auto n = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.zipf(n, 1.0));
  }
}
BENCHMARK(BM_RngZipf)->Arg(100)->Arg(100000);

void BM_EventQueueScheduleAndPop(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  sim::Rng rng(3);
  for (auto _ : state) {
    sim::EventQueue q;
    for (std::size_t i = 0; i < batch; ++i) {
      q.schedule(sim::Time(rng.uniform()), [] {});
    }
    while (q.run_next([](sim::Time t) { benchmark::DoNotOptimize(t); })) {
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_EventQueueScheduleAndPop)->Arg(64)->Arg(4096);

// Replay of the flash_crash event-time profile, recorded by counting
// schedules, cancels and fires inside the event queue over the three
// untraced passes of `perfbench/run.py --workload flash_crash --seed 11
// --seconds 10` (780 ticks, 3.27 M schedules, 3.21 M fires).  Quantiles
// are linearly interpolated into an inverse CDF.
constexpr std::array<double, 20> kQuantiles = {
    0,    0.01, 0.05, 0.1,  0.2,   0.3,  0.4,   0.5,   0.6,   0.7,
    0.8,  0.9,  0.95, 0.97, 0.98,  0.985, 0.99, 0.995, 0.999, 1};
// Events scheduled by one tick (the effect flush), per tick.
constexpr std::array<double, 20> kBurst = {
    2,    15,   111,  226,  464,  771,  1080, 1193, 1249, 1314,
    2636, 3181, 3881, 3997, 4023, 4033, 4101, 4136, 4178, 4178};
// Delay (s) from now of events scheduled by the tick: latency-window
// deliveries, then a ~2% tail of session and patience timers.
constexpr std::array<double, 20> kDelayInTick = {
    0.0061, 0.0188, 0.0284, 0.0358, 0.0472, 0.0579, 0.0694,
    0.0829, 0.0992, 0.1227, 0.1644, 0.3023, 0.4718, 0.5546,
    0.7915, 124.9,  290.2,  663.1,  2102.5, 50954.1};
// Delay (s) of events scheduled by events firing between ticks.
constexpr std::array<double, 20> kDelayBetween = {
    0.0050, 0.0131, 0.0275, 0.0354, 0.0473, 0.0584, 0.0700,
    0.0834, 0.1004, 0.1244, 0.1677, 0.3032, 0.4689, 0.5467,
    0.6504, 25.60,  48.15,  92.37,  134.9,  405.6};
// 2.13 M of the 3.21 M fires between ticks scheduled a follow-up; 25 065
// of the 3.27 M schedules were cancelled (the tick itself is the only
// periodic series of note: 0.05% of fires).
constexpr double kFollowUpShare = 0.6635;
constexpr double kCancelShare = 0.0077;
constexpr double kTickPeriod = 0.5;
constexpr std::size_t kRecentHandles = 4096;
constexpr std::uint64_t kBurstFires = 400000;

double draw(sim::Rng& rng, const std::array<double, 20>& table) {
  const double u = rng.uniform();
  std::size_t i = 1;
  while (i + 1 < kQuantiles.size() && kQuantiles[i] < u) ++i;
  const double f = (u - kQuantiles[i - 1]) / (kQuantiles[i] - kQuantiles[i - 1]);
  return table[i - 1] + f * (table[i] - table[i - 1]);
}

/// Drives one queue through the tick_burst profile until kBurstFires
/// deliveries have fired.  Each event captures its own fire time.
struct TickBurst {
  sim::EventQueue queue;
  sim::Rng rng{17};
  std::vector<sim::EventHandle> recent =
      std::vector<sim::EventHandle>(kRecentHandles);
  std::size_t next_recent = 0;
  std::uint64_t fired = 0;
  std::uint64_t ticks = 0;

  void schedule(double at) {
    if (rng.chance(kCancelShare)) recent[rng.below(kRecentHandles)].cancel();
    recent[next_recent++ % kRecentHandles] =
        queue.schedule(sim::Time(at), [this, at] { deliver(at); });
  }
  void deliver(double now) {
    ++fired;
    if (rng.chance(kFollowUpShare)) schedule(now + draw(rng, kDelayBetween));
  }
  void tick() {
    const double now = kTickPeriod * static_cast<double>(++ticks);
    const auto n = static_cast<std::size_t>(draw(rng, kBurst));
    for (std::size_t i = 0; i < n; ++i) schedule(now + draw(rng, kDelayInTick));
  }
  void run() {
    auto series = queue.schedule_every(sim::Time(kTickPeriod),
                                       sim::Duration(kTickPeriod),
                                       [this] { tick(); });
    while (fired < kBurstFires && queue.run_next()) {
    }
    series.cancel();
  }
};

void BM_EventQueueTickBurst(benchmark::State& state) {
  std::int64_t fires = 0;
  for (auto _ : state) {
    TickBurst burst;
    burst.run();
    fires += static_cast<std::int64_t>(burst.fired);
  }
  state.SetItemsProcessed(fires);
}
BENCHMARK(BM_EventQueueTickBurst)->Unit(benchmark::kMillisecond);

void BM_SimulationPeriodicTick(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulation s(1);
    std::uint64_t count = 0;
    s.every(units::Duration(0.5), units::Duration(0.5), [&count] { ++count; });
    s.run_until(sim::Time(1000.0));
    benchmark::DoNotOptimize(count);
  }
}
BENCHMARK(BM_SimulationPeriodicTick);

void BM_SyncBufferInOrderInsert(benchmark::State& state) {
  for (auto _ : state) {
    core::SyncBuffer sb(4);
    for (int s = 0; s < 1000; ++s) {
      for (int j = 0; j < 4; ++j) {
        sb.advance(core::SubstreamId(j));
      }
    }
    benchmark::DoNotOptimize(sb.combined());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          4000);
}
BENCHMARK(BM_SyncBufferInOrderInsert);

void BM_MaxMinFair(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  sim::Rng rng(4);
  std::vector<units::BlockRate> demands(n);
  for (auto& d : demands) d = units::BlockRate(rng.uniform(0.5, 4.0));
  // Warm scratch, as F1 holds it in its shard scratch.
  std::vector<units::BlockRate> rates(n);
  std::vector<std::size_t> active(n);
  for (auto _ : state) {
    net::max_min_fair(units::BlockRate(3.0), demands, rates, active);
    benchmark::DoNotOptimize(rates.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_MaxMinFair)->Arg(4)->Arg(24)->Arg(96);

void BM_LatencyDelay(benchmark::State& state) {
  net::LatencyModel model(5);
  net::NodeId a = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.delay(a, a + 17));
    ++a;
  }
}
BENCHMARK(BM_LatencyDelay);

void BM_ReportSerializeParse(benchmark::State& state) {
  logging::QosReport r;
  r.header = {123456, 789, 18000.5};
  r.blocks_due = 2400;
  r.blocks_on_time = 2390;
  const logging::Report report(r);
  for (auto _ : state) {
    auto parsed = logging::parse_report(logging::serialize(report));
    benchmark::DoNotOptimize(parsed);
  }
}
BENCHMARK(BM_ReportSerializeParse);

// One sharded tick phase with no work: the cost of releasing the shard
// workers and waiting for all of them, paid three times per tick.  At 1
// shard it is a plain call.
void BM_ShardPhase(benchmark::State& state) {
  sim::ShardWorkers workers(static_cast<std::size_t>(state.range(0)));
  const sim::ShardWorkers::Phase phase = [](std::size_t s) {
    benchmark::DoNotOptimize(s);
  };
  for (auto _ : state) workers.run(phase);
}
BENCHMARK(BM_ShardPhase)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
