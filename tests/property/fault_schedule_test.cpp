// Unit tests for the fault-injection layer itself: schedule text
// round-trips, injector decision semantics, capacity/flap windows, and the
// churn schedule grammar.
#include <string>

#include <gtest/gtest.h>

#include "sim/fault_injector.h"
#include "workload/churn.h"

namespace coolstream {
namespace {

using units::Duration;
using units::Tick;

sim::FaultSchedule lossy_schedule() {
  sim::FaultSchedule s;
  sim::MessageFault m;
  m.window = sim::FaultWindow{Tick(10.0), Tick(50.0)};
  m.node = sim::kFaultAnyNode;
  m.drop = 0.25;
  m.dup = 0.1;
  m.jitter = 0.5;
  m.max_jitter = Duration(0.8);
  s.messages.push_back(m);
  sim::CapacityFault c;
  c.window = sim::FaultWindow{Tick(20.0), Tick(40.0)};
  c.node = 3;
  c.factor = 0.5;
  s.capacities.push_back(c);
  sim::FlapFault f;
  f.window = sim::FaultWindow{Tick(30.0), Tick(35.0)};
  f.node = 7;
  s.flaps.push_back(f);
  return s;
}

TEST(FaultSchedule, TextRoundTrips) {
  const sim::FaultSchedule s = lossy_schedule();
  const auto parsed = sim::FaultSchedule::parse(s.to_text());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, s);
}

TEST(FaultSchedule, ParseRejectsGarbage) {
  EXPECT_FALSE(sim::FaultSchedule::parse("msg 0 10 * 1.5 0 0 0.5"));  // p>1
  EXPECT_FALSE(sim::FaultSchedule::parse("msg 10 5 * 0.1 0 0 0.5"));  // end<start
  EXPECT_FALSE(sim::FaultSchedule::parse("teleport 0 10 3"));         // verb
  EXPECT_FALSE(sim::FaultSchedule::parse("cap 0 10 *"));              // arity
  EXPECT_TRUE(sim::FaultSchedule::parse("# only a comment\n\n"));
}

TEST(FaultSchedule, EmptyAndCounts) {
  sim::FaultSchedule s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.size(), 0u);
  s = lossy_schedule();
  EXPECT_FALSE(s.empty());
  EXPECT_EQ(s.size(), 3u);
}

TEST(FaultInjector, NoFaultsMeansNoDecisions) {
  sim::FaultInjector inj(1234);
  for (int i = 0; i < 100; ++i) {
    const sim::MessageDecision d = inj.on_message(Tick(i), 1, 2);
    EXPECT_FALSE(d.drop);
    EXPECT_FALSE(d.duplicate);
    EXPECT_EQ(d.extra_delay, Duration(0.0));
  }
  EXPECT_EQ(inj.counters().dropped, 0u);
  EXPECT_EQ(inj.counters().duplicated, 0u);
}

TEST(FaultInjector, DropOnlyInsideWindowAndMatchingNode) {
  sim::FaultSchedule s;
  sim::MessageFault m;
  m.window = sim::FaultWindow{Tick(10.0), Tick(20.0)};
  m.node = 5;
  m.drop = 1.0;
  s.messages.push_back(m);
  sim::FaultInjector inj(99, s);
  // Outside the window: never dropped.
  EXPECT_FALSE(inj.on_message(Tick(5.0), 5, 6).drop);
  EXPECT_FALSE(inj.on_message(Tick(20.0), 5, 6).drop);  // end exclusive
  // Inside, node 5 on either end of the edge: always dropped (p = 1).
  EXPECT_TRUE(inj.on_message(Tick(10.0), 5, 6).drop);
  EXPECT_TRUE(inj.on_message(Tick(15.0), 6, 5).drop);
  // Inside, unrelated edge: untouched.
  EXPECT_FALSE(inj.on_message(Tick(15.0), 1, 2).drop);
  EXPECT_EQ(inj.counters().dropped, 2u);
  EXPECT_GT(inj.counters().messages_seen, 0u);
}

TEST(FaultInjector, DropRateIsRoughlyHonoured) {
  sim::FaultSchedule s;
  sim::MessageFault m;
  m.window = sim::FaultWindow{Tick(0.0), Tick(1000.0)};
  m.node = sim::kFaultAnyNode;
  m.drop = 0.3;
  s.messages.push_back(m);
  sim::FaultInjector inj(20070613, s);
  int dropped = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    if (inj.on_message(Tick(1.0), 1, 2).drop) ++dropped;
  }
  EXPECT_NEAR(static_cast<double>(dropped) / n, 0.3, 0.03);
}

TEST(FaultInjector, JitterIsBoundedAndDuplicatesAreFlagged) {
  sim::FaultSchedule s;
  sim::MessageFault m;
  m.window = sim::FaultWindow{Tick(0.0), Tick(100.0)};
  m.node = sim::kFaultAnyNode;
  m.dup = 1.0;
  m.jitter = 1.0;
  m.max_jitter = Duration(0.25);
  s.messages.push_back(m);
  sim::FaultInjector inj(7, s);
  for (int i = 0; i < 200; ++i) {
    const sim::MessageDecision d = inj.on_message(Tick(1.0), 1, 2);
    EXPECT_FALSE(d.drop);
    EXPECT_TRUE(d.duplicate);
    EXPECT_GE(d.extra_delay, Duration(0.0));
    EXPECT_LE(d.extra_delay, Duration(0.25));
    EXPECT_GE(d.duplicate_delay, Duration(0.0));
    EXPECT_LE(d.duplicate_delay, Duration(0.25));
  }
  EXPECT_EQ(inj.counters().duplicated, 200u);
  EXPECT_EQ(inj.counters().jittered, 200u);
}

TEST(FaultInjector, DecisionsAreSeedDeterministic) {
  sim::FaultSchedule s;
  sim::MessageFault m;
  m.window = sim::FaultWindow{Tick(0.0), Tick(100.0)};
  m.node = sim::kFaultAnyNode;
  m.drop = 0.5;
  m.dup = 0.5;
  m.jitter = 0.5;
  s.messages.push_back(m);
  sim::FaultInjector a(42, s);
  sim::FaultInjector b(42, s);
  for (int i = 0; i < 500; ++i) {
    const sim::MessageDecision da = a.on_message(Tick(1.0), 1, 2);
    const sim::MessageDecision db = b.on_message(Tick(1.0), 1, 2);
    EXPECT_EQ(da.drop, db.drop);
    EXPECT_EQ(da.duplicate, db.duplicate);
    EXPECT_EQ(da.extra_delay, db.extra_delay);
    EXPECT_EQ(da.duplicate_delay, db.duplicate_delay);
  }
}

TEST(FaultInjector, CapacityFactorsCompoundAndClamp) {
  sim::FaultSchedule s;
  for (double f : {0.5, 0.4}) {
    sim::CapacityFault c;
    c.window = sim::FaultWindow{Tick(0.0), Tick(10.0)};
    c.node = 1;
    c.factor = f;
    s.capacities.push_back(c);
  }
  const sim::FaultInjector inj(1, s);
  EXPECT_DOUBLE_EQ(inj.capacity_factor(Tick(5.0), 1), 0.2);
  EXPECT_DOUBLE_EQ(inj.capacity_factor(Tick(5.0), 2), 1.0);
  EXPECT_DOUBLE_EQ(inj.capacity_factor(Tick(10.0), 1), 1.0);
}

TEST(FaultInjector, FlapBlocksInboundOnlyDuringWindow) {
  sim::FaultSchedule s;
  sim::FlapFault f;
  f.window = sim::FaultWindow{Tick(10.0), Tick(20.0)};
  f.node = 4;
  s.flaps.push_back(f);
  const sim::FaultInjector inj(1, s);
  EXPECT_FALSE(inj.inbound_blocked(Tick(9.0), 4));
  EXPECT_TRUE(inj.inbound_blocked(Tick(10.0), 4));
  EXPECT_TRUE(inj.inbound_blocked(Tick(19.0), 4));
  EXPECT_FALSE(inj.inbound_blocked(Tick(20.0), 4));
  EXPECT_FALSE(inj.inbound_blocked(Tick(15.0), 5));
}

TEST(ChurnSchedule, TextRoundTripsIncludingFaultLines) {
  workload::ChurnSchedule s;
  workload::ChurnBurst b;
  b.at = Tick(12.0);
  b.arrivals = 6;
  b.spread = Duration(3.0);
  s.bursts.push_back(b);
  workload::MassDeparture d;
  d.at = Tick(40.0);
  d.fraction = 0.35;
  d.crash = true;
  s.departures.push_back(d);
  s.faults = lossy_schedule();
  const auto parsed = workload::ChurnSchedule::parse(s.to_text());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, s);
  EXPECT_EQ(s.size(), 5u);
}

TEST(ChurnSchedule, ParseRejectsBadVerbsAndRanges) {
  EXPECT_FALSE(workload::ChurnSchedule::parse("mass 10 1.5 crash"));
  EXPECT_FALSE(workload::ChurnSchedule::parse("mass 10 0.5 explode"));
  EXPECT_FALSE(workload::ChurnSchedule::parse("burst 10 0 2"));
  // A negative count must not wrap to a huge unsigned one.
  EXPECT_FALSE(workload::ChurnSchedule::parse("burst 10 -5 2"));
  EXPECT_FALSE(workload::ChurnSchedule::parse("nonsense 1 2 3"));
  const auto ok = workload::ChurnSchedule::parse(
      "# clean\nburst 10 3 2.5\nmass 40 0.25 leave\nflap 5 9 2\n");
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->bursts.size(), 1u);
  EXPECT_EQ(ok->departures.size(), 1u);
  EXPECT_EQ(ok->faults.flaps.size(), 1u);
  EXPECT_FALSE(ok->departures.front().crash);
}

}  // namespace
}  // namespace coolstream
