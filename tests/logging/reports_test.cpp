#include "logging/reports.h"

#include <gtest/gtest.h>

namespace coolstream::logging {
namespace {

TEST(ActivityNamesTest, RoundTrip) {
  for (int i = 0; i < 4; ++i) {
    const auto a = static_cast<Activity>(i);
    Activity parsed;
    ASSERT_TRUE(parse_activity(to_string(a), parsed));
    EXPECT_EQ(parsed, a);
  }
  Activity out;
  EXPECT_FALSE(parse_activity("nonsense", out));
}

TEST(ReportsTest, ActivityJoinRoundTrip) {
  ActivityReport r;
  r.header = {101, 202, 33.5};
  r.activity = Activity::kJoin;
  r.address = "10.1.2.3";
  const auto parsed = parse_report(serialize(Report(r)));
  ASSERT_TRUE(parsed.has_value());
  const auto* a = std::get_if<ActivityReport>(&*parsed);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->header.user_id, 101u);
  EXPECT_EQ(a->header.session_id, 202u);
  EXPECT_NEAR(a->header.time, 33.5, 1e-6);
  EXPECT_EQ(a->activity, Activity::kJoin);
  EXPECT_EQ(a->address, "10.1.2.3");
}

TEST(ReportsTest, ActivityLeaveCarriesPartnerFlags) {
  ActivityReport r;
  r.header = {1, 2, 3.0};
  r.activity = Activity::kLeave;
  r.had_incoming = true;
  r.had_outgoing = true;
  const auto parsed = parse_report(serialize(Report(r)));
  ASSERT_TRUE(parsed.has_value());
  const auto& a = std::get<ActivityReport>(*parsed);
  EXPECT_TRUE(a.had_incoming);
  EXPECT_TRUE(a.had_outgoing);
}

TEST(ReportsTest, QosRoundTripAndContinuity) {
  QosReport r;
  r.header = {7, 8, 600.0};
  r.blocks_due = 2400;
  r.blocks_on_time = 2376;
  const auto parsed = parse_report(serialize(Report(r)));
  ASSERT_TRUE(parsed.has_value());
  const auto& q = std::get<QosReport>(*parsed);
  EXPECT_EQ(q.blocks_due, 2400u);
  EXPECT_EQ(q.blocks_on_time, 2376u);
  EXPECT_NEAR(q.continuity(), 0.99, 1e-12);
}

TEST(ReportsTest, QosContinuityWithNoDueBlocksIsOne) {
  QosReport r;
  EXPECT_DOUBLE_EQ(r.continuity(), 1.0);
}

TEST(ReportsTest, TrafficRoundTrip) {
  TrafficReport r;
  r.header = {9, 10, 900.0};
  r.bytes_down = 123456789;
  r.bytes_up = 987654;
  const auto parsed = parse_report(serialize(Report(r)));
  ASSERT_TRUE(parsed.has_value());
  const auto& t = std::get<TrafficReport>(*parsed);
  EXPECT_EQ(t.bytes_down, 123456789u);
  EXPECT_EQ(t.bytes_up, 987654u);
}

TEST(ReportsTest, PartnerRoundTrip) {
  PartnerReport r;
  r.header = {11, 12, 1200.0};
  r.partner_count = 5;
  r.changes = {
      {42, true, true}, {43, true, false}, {42, false, true}};
  const auto parsed = parse_report(serialize(Report(r)));
  ASSERT_TRUE(parsed.has_value());
  const auto& p = std::get<PartnerReport>(*parsed);
  EXPECT_EQ(p.partner_count, 5u);
  ASSERT_EQ(p.changes.size(), 3u);
  EXPECT_EQ(p.changes[0].partner, 42u);
  EXPECT_TRUE(p.changes[0].added);
  EXPECT_TRUE(p.changes[0].incoming);
  EXPECT_FALSE(p.changes[1].incoming);
  EXPECT_FALSE(p.changes[2].added);
}

TEST(ReportsTest, PartnerEmptyChanges) {
  PartnerReport r;
  r.header = {1, 2, 3.0};
  r.partner_count = 0;
  const auto parsed = parse_report(serialize(Report(r)));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(std::get<PartnerReport>(*parsed).changes.empty());
}

TEST(ReportsTest, MalformedLinesRejected) {
  EXPECT_FALSE(parse_report("").has_value());
  EXPECT_FALSE(parse_report("garbage").has_value());
  EXPECT_FALSE(parse_report("type=unknown&uid=1&sid=2&t=3").has_value());
  EXPECT_FALSE(parse_report("type=qos&uid=1&sid=2").has_value());  // no t
  EXPECT_FALSE(
      parse_report("type=qos&uid=1&sid=2&t=3").has_value());  // no due
  EXPECT_FALSE(
      parse_report("type=qos&uid=x&sid=2&t=3&due=1&ontime=1").has_value());
  EXPECT_FALSE(
      parse_report("type=activity&uid=1&sid=2&t=3&ev=bogus").has_value());
  EXPECT_FALSE(
      parse_report("type=partner&uid=1&sid=2&t=3&n=1&chg=12xi").has_value());
}

TEST(ReportsTest, SerializedFormIsUrlQueryString) {
  QosReport r;
  r.header = {1, 2, 3.25};
  r.blocks_due = 10;
  r.blocks_on_time = 9;
  const std::string line = serialize(Report(r));
  EXPECT_EQ(line.find("type=qos"), 0u);
  EXPECT_NE(line.find("&uid=1&"), std::string::npos);
  EXPECT_NE(line.find("&due=10&"), std::string::npos);
  // name=value pairs separated by '&', as in the paper's log strings.
  EXPECT_EQ(line.find(' '), std::string::npos);
}

// Property sweep over all report kinds: serialize/parse identity.
class ReportRoundTripTest : public ::testing::TestWithParam<int> {};

TEST_P(ReportRoundTripTest, Identity) {
  const std::uint64_t salt = static_cast<std::uint64_t>(GetParam());
  Report original;
  switch (GetParam() % 4) {
    case 0: {
      ActivityReport r;
      r.header = {salt, salt * 2, static_cast<double>(salt) * 0.5};
      r.activity = static_cast<Activity>(salt % 4);
      r.address = "172.16.0.1";
      if (r.activity == Activity::kLeave) r.had_outgoing = true;
      original = r;
      break;
    }
    case 1: {
      QosReport r;
      r.header = {salt, salt + 1, static_cast<double>(salt)};
      r.blocks_due = salt * 100;
      r.blocks_on_time = salt * 99;
      original = r;
      break;
    }
    case 2: {
      TrafficReport r;
      r.header = {salt, salt + 2, static_cast<double>(salt)};
      r.bytes_down = salt << 20;
      r.bytes_up = salt << 10;
      original = r;
      break;
    }
    default: {
      PartnerReport r;
      r.header = {salt, salt + 3, static_cast<double>(salt)};
      r.partner_count = static_cast<std::uint32_t>(salt % 9);
      for (std::uint64_t i = 0; i < salt % 5; ++i) {
        r.changes.push_back(PartnerChange{
            static_cast<net::NodeId>(i * 7), i % 2 == 0, i % 3 == 0});
      }
      original = r;
      break;
    }
  }
  const auto parsed = parse_report(serialize(original));
  ASSERT_TRUE(parsed.has_value());
  // Compare through re-serialization (Report has no operator==).
  EXPECT_EQ(serialize(*parsed), serialize(original));
}

INSTANTIATE_TEST_SUITE_P(Sweep, ReportRoundTripTest,
                         ::testing::Range(1, 33));

}  // namespace
}  // namespace coolstream::logging
