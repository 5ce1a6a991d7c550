// Proves the control-plane hot paths' zero-allocation steady state.
//
// This test binary replaces the global operator new/delete with counting
// versions (bench/counting_allocator.h, like tests/sim/allocation_test.cpp,
// and a separate binary for the same reason: the replacement must not
// interfere with the other suites).  After warm-up — mCache fill,
// sampling scratch capacities and event-slab growth are amortized
// infrastructure — the periodic protocol messages themselves must not
// touch the heap:
//   * buffer-map exchange (snapshot in a tick, publish in its flush),
//   * gossip sends (mCache sampling + event enqueue),
//   * gossip sends and deliveries with drop, duplicate and jitter armed,
//   * gossip receives (mCache refresh of known entries),
//   * the flow-rate allocator (max_min_fair) on warm scratch.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/invariants.h"
#include "core/mcache.h"
#include "core/params.h"
#include "core/system.h"
#include "counting_allocator.h"
#include "net/address.h"
#include "net/bandwidth.h"
#include "sim/fault_injector.h"
#include "sim/simulation.h"

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
      for (const PartnerView ps : p->partners()) {
        if (sys->is_live(ps.id())) return p;
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
  for (const PartnerView ps : a->partners()) {
    if (t.sys->is_live(ps.id())) {
      b_id = ps.id();
      break;
    }
  }
  Peer* b = t.sys->peer(b_id);
  ASSERT_NE(b, nullptr);
  // Each round makes every node's exchange fall due on the next tick and
  // runs that tick: phase P snapshots the maps, the flush publishes them.
  const auto exchange_round = [&t] {
    for (const net::NodeId id : t.sys->live_nodes()) {
      InvariantTestAccess::next_bm_push(*t.sys->peer(id)) = t.sys->now();
    }
    t.simulation.run_until(
        sim::Time(t.sys->now().value() + t.params.flow_tick));
  };
  for (int round = 0; round < 20; ++round) exchange_round();  // warm-up

  const std::uint64_t allocs_before = g_allocations;
  for (int round = 0; round < 20; ++round) exchange_round();
  EXPECT_EQ(g_allocations - allocs_before, 0u)
      << "steady-state BM exchange touched the heap";
  const std::optional<PartnerView> view = a->partners().find(b_id);
  ASSERT_TRUE(view.has_value());
  ASSERT_TRUE(view->bm_time().has_value());
  EXPECT_GT(*view->bm_time(), t.sys->now() - Duration(t.params.flow_tick));
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

  // Warm-up round: grows the event slab and the event heap.  3x the
  // counted burst so every capacity peaks well above what the counted
  // region can reach even with background gossip still in flight at the
  // measurement boundary; then drain (uncounted — the global tick's status
  // reports legitimately allocate).
  for (int i = 0; i < 192; ++i) InvariantTestAccess::do_gossip(*a);
  t.simulation.run_until(sim::Time(125.0));
  ASSERT_TRUE(a->alive());

  const std::uint64_t allocs_before = g_allocations;
  for (int i = 0; i < 64; ++i) InvariantTestAccess::do_gossip(*a);
  EXPECT_EQ(g_allocations - allocs_before, 0u)
      << "gossip send (sampling + enqueue) touched the heap";
  t.simulation.run_until(sim::Time(130.0));  // drain the deliveries
}

TEST(HotpathAllocationTest, MessagesUnderFaultsAreAllocationFree) {
  SteadySystem t;
  sim::FaultSchedule schedule;
  sim::MessageFault m;
  m.window = {sim::Time::zero(), sim::Time(1e9)};
  m.drop = 0.2;
  m.dup = 0.5;
  m.jitter = 0.5;
  schedule.messages.push_back(m);
  sim::FaultInjector faults(21, schedule);
  t.sys->attach_faults(&faults);
  Peer* a = t.connected_viewer();
  ASSERT_NE(a, nullptr);

  // Warm-up: 3x the counted burst, then drain (uncounted), so the message
  // table and the event heap have peaked above what the counted region
  // can reach.  A delivery arrives at most 1.5 s of latency plus 2 x 0.5 s
  // of jitter after its send.
  for (int i = 0; i < 192; ++i) InvariantTestAccess::do_gossip(*a);
  t.simulation.run_until(sim::Time(125.0));
  ASSERT_TRUE(a->alive());

  const std::uint64_t allocs_before = g_allocations;
  for (int i = 0; i < 64; ++i) InvariantTestAccess::do_gossip(*a);
  t.simulation.run_until(sim::Time(128.0));
  EXPECT_EQ(g_allocations - allocs_before, 0u)
      << "gossip under drop/duplicate/jitter touched the heap";
  EXPECT_GT(faults.counters().dropped, 0u);
  EXPECT_GT(faults.counters().duplicated, 0u);
  EXPECT_GT(faults.counters().jittered, 0u);
  t.sys->attach_faults(nullptr);
}

TEST(HotpathAllocationTest, GossipReceiveIsAllocationFree) {
  SteadySystem t;
  Peer* a = t.connected_viewer();
  ASSERT_NE(a, nullptr);

  // Entries for nodes the cache will already know after one delivery, so
  // the counted rounds exercise the refresh path (the steady state: gossip
  // mostly re-announces peers you have heard of).
  const std::array<McacheEntry, 4> entries{{
      {Tick(0.0), net::NodeId(0), true},
      {Tick(0.0), net::NodeId(1), true},
      {Tick(10.0), net::NodeId(500), true},
      {Tick(10.0), net::NodeId(501), false},
  }};
  a->on_gossip(entries);  // warm: may insert new entries

  const std::uint64_t allocs_before = g_allocations;
  for (int round = 0; round < 1000; ++round) {
    a->on_gossip(entries);
  }
  EXPECT_EQ(g_allocations - allocs_before, 0u)
      << "gossip receive (mCache refresh) touched the heap";
}

TEST(HotpathAllocationTest, McacheSamplingIsAllocationFree) {
  Mcache cache(32, McachePolicy::kRandomReplace);
  sim::Rng rng(5);
  // Fill past capacity so upserts in the counted loop take the
  // replace-in-place path.
  for (std::uint32_t i = 0; i < 64; ++i) {
    cache.upsert(
        McacheEntry{Tick(static_cast<double>(i)), net::NodeId(i), true}, rng);
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
    cache.upsert(McacheEntry{Tick(0.0), net::NodeId(round % 64), true}, rng);
  }
  EXPECT_EQ(g_allocations - allocs_before, 0u);
  EXPECT_GE(delivered, 3000u);
}

}  // namespace
}  // namespace coolstream::core
