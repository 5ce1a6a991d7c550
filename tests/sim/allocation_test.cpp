// Proves the event engine's zero-allocation steady state.
//
// This test binary replaces the global operator new/delete with counting
// versions (bench/counting_allocator.h).  After a warm-up phase (slab
// chunks, bucket arrays and vector capacities are amortized
// infrastructure, not per-event cost), scheduling, firing and cancelling
// events through the periodic-loop path must perform exactly zero heap
// allocations.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>

#include "counting_allocator.h"
#include "sim/event_queue.h"
#include "sim/simulation.h"

namespace coolstream::sim {
namespace {

TEST(AllocationTest, PeriodicLoopIsAllocationFree) {
  Simulation s;
  std::uint64_t fires = 0;
  // Several concurrent periodic series, like a peer's protocol loops
  // (buffer-map exchange, gossip, adaptation, status reports).
  EventHandle loops[4];
  loops[0] = s.every(Duration(0.1), Duration(1.0), [&] { ++fires; });
  loops[1] = s.every(Duration(0.2), Duration(1.5), [&] { ++fires; });
  loops[2] = s.every(Duration(0.3), Duration(5.0), [&] { ++fires; });
  loops[3] = s.every(Duration(0.4), Duration(300.0), [&] { ++fires; });
  s.run_until(Time(500.0));  // warm up: slab chunks, heap capacity

  const std::uint64_t fires_before = fires;
  const std::uint64_t allocs_before = g_allocations;
  s.run_until(Time(10000.0));
  const std::uint64_t allocs_after = g_allocations;
  const std::uint64_t fired = fires - fires_before;

  EXPECT_GT(fired, 10000u);
  EXPECT_EQ(allocs_after - allocs_before, 0u)
      << "periodic path allocated " << (allocs_after - allocs_before)
      << " times over " << fired << " events";
  for (auto& h : loops) h.cancel();
}

TEST(AllocationTest, OneShotChurnIsAllocationFree) {
  Simulation s;
  // Self-sustaining one-shot chain: every firing schedules the next, the
  // way transport deliveries and timers drive the simulation.
  std::uint64_t fires = 0;
  struct Chain {
    Simulation& sim;
    std::uint64_t& count;
    void operator()() const {
      ++count;
      sim.after(Duration(0.05), Chain{sim, count});
    }
  };
  s.after(Duration(0.0), Chain{s, fires});
  s.run_until(Time(100.0));  // warm up

  const std::uint64_t allocs_before = g_allocations;
  s.run_until(Time(2000.0));
  EXPECT_GT(fires, 10000u);
  EXPECT_EQ(g_allocations - allocs_before, 0u);
}

TEST(AllocationTest, CancelPathIsAllocationFree) {
  EventQueue q;
  // Warm up the slab and the heap with a churny population.
  EventHandle handles[256];
  for (int round = 0; round < 20; ++round) {
    for (std::size_t i = 0; i < 256; ++i) {
      handles[i] =
          q.schedule(Time(static_cast<double>(round) +
                          static_cast<double>(i) * 1e-3),
                     [] {});
    }
    for (auto& h : handles) h.cancel();
  }

  const std::uint64_t allocs_before = g_allocations;
  for (int round = 0; round < 100; ++round) {
    for (std::size_t i = 0; i < 256; ++i) {
      handles[i] =
          q.schedule(Time(static_cast<double>(round) +
                          static_cast<double>(i) * 1e-3),
                     [] {});
    }
    for (auto& h : handles) h.cancel();
  }
  EXPECT_EQ(g_allocations - allocs_before, 0u);
  EXPECT_TRUE(q.empty());
}

TEST(AllocationTest, SmallCallbacksStayInline) {
  // Pins the inline limit at the largest callback the protocol queues: a
  // message delivery, [System*, Message] with its 80-byte record (four
  // 16-byte mCache entries, two ids, a sub-stream, the kind and the entry
  // count).  It must fit the in-record buffer without a heap allocation.
  EventQueue q;
  struct Capture {
    std::array<std::uint64_t, 8> entries;
    std::uint32_t from, to, substream;
    unsigned char kind, count;
  };
  static_assert(sizeof(Capture) == 80);
  static_assert(sizeof(Capture) + sizeof(void*) ==
                detail::InlineFn::kInlineSize);

  q.schedule(Time(1.0), [] {});  // warm the slab and the entry heap
  q.run_next();
  const std::uint64_t allocs_before = g_allocations;
  Capture c{};
  c.entries[7] = 42;
  bool ran = false;
  q.schedule(Time(2.0), [c, &ran] { ran = c.entries[7] == 42; });
  q.run_next();
  EXPECT_TRUE(ran);
  EXPECT_EQ(g_allocations - allocs_before, 0u);
}

}  // namespace
}  // namespace coolstream::sim
