// google-benchmark micro-benchmarks of the substrates: event queue, RNG,
// buffer structures, allocation policy, wire formats.  These guard the
// hot paths that make the figure benches tractable on one core.
#include <benchmark/benchmark.h>

#include "core/buffer_map.h"
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
        sb.insert(core::SubstreamId(j), core::SeqNum(s));
      }
    }
    benchmark::DoNotOptimize(sb.combined());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          4000);
}
BENCHMARK(BM_SyncBufferInOrderInsert);

void BM_BufferMapRoundTrip(benchmark::State& state) {
  core::BufferMap bm(4);
  for (int j = 0; j < 4; ++j) {
    bm.set_latest(core::SubstreamId(j), core::SeqNum(123456 + j));
    bm.set_subscribed(core::SubstreamId(j), j % 2 == 0);
  }
  for (auto _ : state) {
    auto decoded = core::BufferMap::decode(bm.encode());
    benchmark::DoNotOptimize(decoded);
  }
}
BENCHMARK(BM_BufferMapRoundTrip);

void BM_MaxMinFair(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  sim::Rng rng(4);
  std::vector<units::BlockRate> demands(n);
  for (auto& d : demands) d = units::BlockRate(rng.uniform(0.5, 4.0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::max_min_fair(units::BlockRate(3.0), demands));
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
