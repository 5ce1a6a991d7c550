#include "net/transport.h"

#include <gtest/gtest.h>

#include "sim/fault_injector.h"

namespace coolstream::net {
namespace {

class TransportTest : public ::testing::Test {
 protected:
  sim::Simulation sim_{1};
  LatencyModel latency_{1};
  Transport transport_{sim_, latency_};
};

TEST_F(TransportTest, DeliversAfterLatency) {
  const Arrivals a = transport_.route(1, 2, MessageKind::kGossip);
  ASSERT_EQ(a.count, 1u);
  EXPECT_EQ(a.delays[0], latency_.delay(1, 2));
}

TEST_F(TransportTest, CountsByKind) {
  transport_.route(1, 2, MessageKind::kGossip);
  transport_.route(1, 2, MessageKind::kGossip);
  transport_.route(1, 3, MessageKind::kSubscribe);
  transport_.count_only(MessageKind::kBufferMap);
  EXPECT_EQ(transport_.sent(MessageKind::kGossip), 2u);
  EXPECT_EQ(transport_.sent(MessageKind::kSubscribe), 1u);
  EXPECT_EQ(transport_.sent(MessageKind::kBufferMap), 1u);
  EXPECT_EQ(transport_.sent(MessageKind::kReport), 0u);
  EXPECT_EQ(transport_.total_sent(), 4u);
}

/// A fault schedule that hits every message with the given verdicts.
sim::FaultSchedule every_message(double drop, double dup, double jitter) {
  sim::FaultSchedule schedule;
  sim::MessageFault m;
  m.window = {sim::Time::zero(), sim::Time(1e9)};
  m.drop = drop;
  m.dup = dup;
  m.jitter = jitter;
  schedule.messages.push_back(m);
  return schedule;
}

TEST_F(TransportTest, ListsTheDuplicateFirstAndNothingOnADrop) {
  const units::Duration base = latency_.delay(1, 2);

  sim::FaultInjector dup(7, every_message(0.0, 1.0, 1.0));
  transport_.attach_faults(&dup);
  const Arrivals twice = transport_.route(1, 2, MessageKind::kPartnership);
  ASSERT_EQ(twice.count, 2u);
  // The real copy is jittered; the duplicate adds its own delay on top.
  EXPECT_GE(twice.delays[1], base);
  EXPECT_GE(twice.delays[0], twice.delays[1]);
  EXPECT_EQ(dup.counters().duplicated, 1u);

  sim::FaultInjector drop(7, every_message(1.0, 1.0, 1.0));
  transport_.attach_faults(&drop);
  const Arrivals never = transport_.route(1, 2, MessageKind::kPartnership);
  EXPECT_EQ(never.count, 0u);
  EXPECT_EQ(never.begin(), never.end());
  EXPECT_EQ(drop.counters().dropped, 1u);

  transport_.attach_faults(nullptr);
  // A dropped message was still sent, so it still counts.
  EXPECT_EQ(transport_.sent(MessageKind::kPartnership), 2u);
}

TEST_F(TransportTest, MessageKindNames) {
  EXPECT_EQ(to_string(MessageKind::kGossip), "gossip");
  EXPECT_EQ(to_string(MessageKind::kBufferMap), "buffermap");
  EXPECT_EQ(to_string(MessageKind::kSubscribe), "subscribe");
  EXPECT_EQ(to_string(MessageKind::kPartnership), "partnership");
  EXPECT_EQ(to_string(MessageKind::kReport), "report");
}

}  // namespace
}  // namespace coolstream::net
