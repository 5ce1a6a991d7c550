// Proves the control-plane hot paths' zero-allocation steady state.
//
// This test binary replaces the global operator new/delete with counting
// versions (same pattern as tests/sim/allocation_test.cpp, and a separate
// binary for the same reason: the replacement must not interfere with the
// other suites).  After warm-up — arena chunks, mCache fill, sampling
// scratch capacities and event-slab growth are amortized infrastructure —
// the periodic protocol messages themselves must not touch the heap:
//   * buffer-map exchange (build + copy + deliver, both directions),
//   * gossip sends (arena batch + mCache sampling + transport enqueue),
//   * gossip receives (mCache refresh of known entries),
//   * MessageArena batch recycling, including leases outliving the arena,
//   * the flow-rate allocator (max_min_fair) on warm scratch.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <span>
#include <vector>

#include "core/arena.h"
#include "core/invariants.h"
#include "core/mcache.h"
#include "core/params.h"
#include "core/system.h"
#include "net/address.h"
#include "net/bandwidth.h"
#include "sim/simulation.h"

namespace {

std::uint64_t g_allocations = 0;

void* counted_alloc(std::size_t size) {
  ++g_allocations;
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* counted_alloc(std::size_t size, std::align_val_t align) {
  ++g_allocations;
  void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                               (size + static_cast<std::size_t>(align) - 1) &
                                   ~(static_cast<std::size_t>(align) - 1));
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_alloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace coolstream::core {
namespace {

/// A small overlay run to protocol steady state: servers + a handful of
/// viewers, everything established and playing.
struct SteadySystem {
  sim::Simulation simulation{11};
  Params params;
  SystemConfig config;
  std::unique_ptr<System> sys;

  SteadySystem() {
    config.server_count = 2;
    config.server_capacity_bps = 20e6;
    config.server_max_partners = 20;
    sys = std::make_unique<System>(simulation, params, config, nullptr);
    sys->start();
    for (int i = 0; i < 8; ++i) {
      PeerSpec s;
      s.user_id = static_cast<std::uint64_t>(100 + i);
      s.kind = PeerKind::kViewer;
      s.type = i % 2 == 0 ? net::ConnectionType::kDirect
                          : net::ConnectionType::kUpnp;
      s.address = net::random_public_address(simulation.rng());
      s.upload_capacity = units::BitRate(1e6);
      sys->join(s);
    }
    simulation.run_until(sim::Time(120.0));
  }

  /// A live viewer that has at least one live partner.
  Peer* connected_viewer() {
    for (const net::NodeId id : sys->live_nodes()) {
      Peer* p = sys->peer(id);
      if (p == nullptr || p->kind() != PeerKind::kViewer) continue;
      for (const auto& ps : p->partners()) {
        if (sys->is_live(ps.id)) return p;
      }
    }
    return nullptr;
  }
};

TEST(HotpathAllocationTest, BmExchangeIsAllocationFree) {
  SteadySystem t;
  Peer* a = t.connected_viewer();
  ASSERT_NE(a, nullptr) << "no viewer with a live partner after warm-up";
  net::NodeId b_id = net::kInvalidNode;
  for (const auto& ps : a->partners()) {
    if (t.sys->is_live(ps.id)) {
      b_id = ps.id;
      break;
    }
  }
  Peer* b = t.sys->peer(b_id);
  ASSERT_NE(b, nullptr);

  // Warm-up: one exchange each way (the BM caches rebuild lazily).
  t.sys->push_bm(a->id(), b_id, a->current_bm());
  t.sys->push_bm(b_id, a->id(), b->current_bm());

  const std::uint64_t allocs_before = g_allocations;
  for (int round = 0; round < 1000; ++round) {
    t.sys->push_bm(a->id(), b_id, a->current_bm());
    t.sys->push_bm(b_id, a->id(), b->current_bm());
  }
  EXPECT_EQ(g_allocations - allocs_before, 0u)
      << "steady-state BM exchange touched the heap";
  EXPECT_TRUE(a->find_partner(b_id)->bm_time.has_value());
}

TEST(HotpathAllocationTest, MaxMinFairOnWarmScratchIsAllocationFree) {
  // The flow-rate phase runs the allocator once per parent per tick into
  // per-shard scratch; once that scratch has grown, no call allocates.
  std::vector<units::BlockRate> demands;
  for (int i = 0; i < 12; ++i) {
    demands.emplace_back(i % 4 == 0 ? 0.0 : 0.5 + 0.25 * i);
  }
  std::vector<units::BlockRate> rates(demands.size());
  std::vector<std::size_t> active(demands.size());
  net::max_min_fair(units::BlockRate(6.0), demands, rates, active);

  const std::uint64_t allocs_before = g_allocations;
  double granted = 0.0;
  for (int round = 0; round < 1000; ++round) {
    const std::size_t n = 1 + static_cast<std::size_t>(round) % demands.size();
    const std::span<const units::BlockRate> d(demands.data(), n);
    net::max_min_fair(units::BlockRate(0.5 * (round % 9)), d,
                      std::span<units::BlockRate>(rates.data(), n), active);
    granted += rates[n - 1].value();
  }
  EXPECT_EQ(g_allocations - allocs_before, 0u)
      << "max_min_fair on warm scratch touched the heap";
  EXPECT_GT(granted, 0.0);
}

TEST(HotpathAllocationTest, GossipSendPathIsAllocationFree) {
  SteadySystem t;
  Peer* a = t.connected_viewer();
  ASSERT_NE(a, nullptr);

  // Warm-up round: grows the arena pool, the event slab and the event
  // queue's spill heap.  3x the counted burst so every capacity peaks well
  // above what the counted region can reach even with background gossip
  // still in flight at the measurement boundary; then drain (uncounted —
  // the global tick's status reports legitimately allocate).
  for (int i = 0; i < 192; ++i) InvariantTestAccess::do_gossip(*a);
  t.simulation.run_until(sim::Time(125.0));
  ASSERT_TRUE(a->alive());

  const std::uint64_t allocs_before = g_allocations;
  for (int i = 0; i < 64; ++i) InvariantTestAccess::do_gossip(*a);
  EXPECT_EQ(g_allocations - allocs_before, 0u)
      << "gossip send (arena batch + sampling + enqueue) touched the heap";
  t.simulation.run_until(sim::Time(130.0));  // drain leases
}

TEST(HotpathAllocationTest, GossipReceiveIsAllocationFree) {
  SteadySystem t;
  Peer* a = t.connected_viewer();
  ASSERT_NE(a, nullptr);

  auto batch = t.sys->message_arena().make();
  const Tick now = t.sys->now();
  // Entries for nodes the cache will already know after one delivery, so
  // the counted rounds exercise the refresh path (the steady state: gossip
  // mostly re-announces peers you have heard of).
  batch.push_back(McacheEntry{Tick(0.0), now, net::NodeId(0), true});
  batch.push_back(McacheEntry{Tick(0.0), now, net::NodeId(1), true});
  batch.push_back(McacheEntry{Tick(10.0), now, net::NodeId(500), true});
  batch.push_back(McacheEntry{Tick(10.0), now, net::NodeId(501), false});
  a->on_gossip(batch.items());  // warm: may insert new entries

  const std::uint64_t allocs_before = g_allocations;
  for (int round = 0; round < 1000; ++round) {
    a->on_gossip(batch.items());
  }
  EXPECT_EQ(g_allocations - allocs_before, 0u)
      << "gossip receive (mCache refresh) touched the heap";
}

TEST(HotpathAllocationTest, ArenaBatchCycleIsAllocationFree) {
  MessageArena<McacheEntry> arena(4);
  const McacheEntry e{Tick(1.0), Tick(2.0), net::NodeId(7), true};
  {
    auto warm = arena.make();  // allocates the first chunk
    warm.push_back(e);
    auto copy = warm;  // refcount bump only
    EXPECT_EQ(copy.size(), 1u);
  }

  const std::uint64_t allocs_before = g_allocations;
  for (int round = 0; round < 1000; ++round) {
    auto batch = arena.make();
    for (int i = 0; i < 4; ++i) batch.push_back(e);
    auto copy = batch;           // shared lease
    auto moved = std::move(batch);
    EXPECT_EQ(copy.size(), 4u);
    EXPECT_EQ(moved.size(), 4u);
    copy.reset();
    // `moved` recycles the chunk on scope exit.
  }
  EXPECT_EQ(g_allocations - allocs_before, 0u);
  EXPECT_EQ(arena.chunk_count(), 1u) << "recycling failed; pool grew";
  EXPECT_EQ(arena.live_batches(), 0u);
}

TEST(HotpathAllocationTest, BatchLeaseOutlivesArenaWithoutAllocating) {
  auto arena = std::make_unique<MessageArena<McacheEntry>>(4);
  auto batch = arena->make();
  batch.push_back(McacheEntry{Tick(0.0), Tick(0.0), net::NodeId(3), true});
  batch.push_back(McacheEntry{Tick(0.0), Tick(0.0), net::NodeId(4), false});

  const std::uint64_t allocs_before = g_allocations;
  arena.reset();  // System gone; queued deliveries may still hold leases
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch.items()[0].id, net::NodeId(3));
  EXPECT_EQ(batch.items()[1].id, net::NodeId(4));
  batch.reset();  // last lease frees the pool — release, not allocation
  EXPECT_EQ(g_allocations - allocs_before, 0u);
}

TEST(HotpathAllocationTest, McacheSamplingIsAllocationFree) {
  Mcache cache(32, McachePolicy::kRandomReplace);
  sim::Rng rng(5);
  // Fill past capacity so upserts in the counted loop take the
  // replace-in-place path.
  for (std::uint32_t i = 0; i < 64; ++i) {
    cache.upsert(McacheEntry{Tick(static_cast<double>(i)),
                             Tick(static_cast<double>(i)), net::NodeId(i), true},
                 rng);
  }
  ASSERT_EQ(cache.size(), 32u);

  Mcache::SampleScratch scratch;
  std::uint64_t delivered = 0;
  const auto sink = [&delivered](const McacheEntry&) { ++delivered; };
  cache.sample_into(3, rng, [](net::NodeId) { return false; }, scratch,
                    sink);  // warm the scratch capacities

  const std::uint64_t allocs_before = g_allocations;
  for (std::uint32_t round = 0; round < 1000; ++round) {
    cache.sample_into(
        3, rng, [round](net::NodeId id) { return id == net::NodeId(round % 64); },
        scratch, sink);
    cache.upsert(McacheEntry{Tick(0.0), Tick(1000.0 + round),
                             net::NodeId(round % 64), true},
                 rng);
  }
  EXPECT_EQ(g_allocations - allocs_before, 0u);
  EXPECT_GE(delivered, 3000u);
}

}  // namespace
}  // namespace coolstream::core
