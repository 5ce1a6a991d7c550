// Messages in flight under the fault plane: each copy is one queued
// delivery event carrying the whole record, so a duplicate verdict queues
// two, a drop verdict none, and none stays queued once they have run.
// Also the teardown order the queued records must survive: a System
// destroyed with messages in flight, then its Simulation.
#include <gtest/gtest.h>

#include <array>
#include <memory>

#include "core/invariants.h"
#include "core/mcache.h"
#include "core/params.h"
#include "core/system.h"
#include "net/address.h"
#include "sim/fault_injector.h"
#include "sim/simulation.h"

namespace coolstream::core {
namespace {

/// Two servers and no viewers: servers neither gossip nor partner on their
/// own, so the test's messages are the only ones in flight.
struct QuietSystem {
  sim::Simulation simulation{3};
  sim::FaultInjector faults;
  std::unique_ptr<System> sys;
  std::size_t idle_events = 0;

  QuietSystem(double drop, double dup) : faults(5, schedule(drop, dup)) {
    SystemConfig config;
    config.server_count = 2;
    sys = std::make_unique<System>(simulation, Params{}, config, nullptr);
    sys->attach_faults(&faults);
    sys->start();
    idle_events = simulation.queue().size();
  }

  /// Events queued beyond the System's own timers: the deliveries.
  std::size_t deliveries_queued() {
    return simulation.queue().size() - idle_events;
  }

  static sim::FaultSchedule schedule(double drop, double dup) {
    sim::FaultSchedule s;
    sim::MessageFault m;
    m.window = {sim::Time::zero(), sim::Time(1e9)};
    m.drop = drop;
    m.dup = dup;
    s.messages.push_back(m);
    return s;
  }

  /// Runs 3 s (past the longest latency plus duplicate jitter) one event
  /// at a time and counts the deliveries of `sent` to server 1: each one
  /// must carry the sent entries intact, and is erased again so the next
  /// copy shows.
  int deliveries_of(const std::array<McacheEntry, 3>& sent) {
    Mcache& cache = InvariantTestAccess::mcache(*sys->peer(1));
    int seen = 0;
    const sim::Time until = simulation.now() + sim::Duration(3.0);
    while (simulation.step(until)) {
      if (!cache.contains(sent[0].id)) continue;
      ++seen;
      for (const McacheEntry& e : sent) {
        bool found = false;
        for (std::size_t i = 0; i < cache.size(); ++i) {
          const McacheEntry c = cache.entry(i);
          if (c.id != e.id) continue;
          found = true;
          EXPECT_EQ(c.first_seen, e.first_seen);
          EXPECT_EQ(c.reachable, e.reachable);
        }
        EXPECT_TRUE(found) << "entry " << e.id << " missing";
        cache.remove(e.id);
      }
    }
    return seen;
  }
};

const std::array<McacheEntry, 3> kSent{{
    {Tick(1.0), net::NodeId(900), true},
    {Tick(2.0), net::NodeId(901), false},
    {Tick(3.0), net::NodeId(902), true},
}};

TEST(MessageTableTest, DuplicateVerdictDeliversGossipTwice) {
  QuietSystem q(/*drop=*/0.0, /*dup=*/1.0);
  q.sys->send_gossip(0, 1, kSent);
  EXPECT_EQ(q.deliveries_queued(), 2u);
  EXPECT_EQ(q.deliveries_of(kSent), 2);
  EXPECT_EQ(q.faults.counters().duplicated, 1u);
  EXPECT_EQ(q.sys->transport().sent(net::MessageKind::kGossip), 1u);
  EXPECT_EQ(q.deliveries_queued(), 0u);
}

TEST(MessageTableTest, DropVerdictDeliversNothing) {
  QuietSystem q(/*drop=*/1.0, /*dup=*/0.0);
  q.sys->send_gossip(0, 1, kSent);
  EXPECT_EQ(q.deliveries_queued(), 0u);
  EXPECT_EQ(q.deliveries_of(kSent), 0);
  EXPECT_EQ(q.faults.counters().dropped, 1u);
  EXPECT_EQ(q.sys->transport().sent(net::MessageKind::kGossip), 1u);
  EXPECT_EQ(q.deliveries_queued(), 0u);
}

TEST(MessageTableTest, SystemDestroyedWithMessagesInFlight) {
  // The System dies before its Simulation, so the queue still holds
  // [System*, Message] deliveries when the System is gone.  They must be
  // dropped without running (clean under ASan).
  auto simulation = std::make_unique<sim::Simulation>(9);
  SystemConfig config;
  config.server_count = 2;
  auto sys =
      std::make_unique<System>(*simulation, Params{}, config, nullptr);
  sys->start();
  const std::size_t idle_events = simulation->queue().size();
  PeerSpec viewer;
  viewer.kind = PeerKind::kViewer;
  viewer.address = net::random_public_address(simulation->rng());
  viewer.upload_capacity = units::BitRate(1e6);
  sys->join(viewer);  // its boot-strap request is now in flight
  sys->send_gossip(0, 1, kSent);
  sys->attempt_partnership(0, 1);
  ASSERT_EQ(simulation->queue().size() - idle_events, 3u);
  sys.reset();
  simulation.reset();
}

}  // namespace
}  // namespace coolstream::core
