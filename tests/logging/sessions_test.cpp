#include "logging/sessions.h"

#include <gtest/gtest.h>

#include "logging/log_server.h"

namespace coolstream::logging {
namespace {

ActivityReport activity(std::uint64_t user, std::uint64_t session, double t,
                        Activity a, const std::string& ip = "",
                        bool inc = false, bool out = false) {
  ActivityReport r;
  r.header = {user, session, t};
  r.activity = a;
  r.address = ip;
  r.had_incoming = inc;
  r.had_outgoing = out;
  return r;
}

QosReport qos(std::uint64_t user, std::uint64_t session, double t,
              std::uint64_t due, std::uint64_t on_time) {
  QosReport r;
  r.header = {user, session, t};
  r.blocks_due = due;
  r.blocks_on_time = on_time;
  return r;
}

TrafficReport traffic(std::uint64_t user, std::uint64_t session, double t,
                      std::uint64_t down, std::uint64_t up) {
  TrafficReport r;
  r.header = {user, session, t};
  r.bytes_down = down;
  r.bytes_up = up;
  return r;
}

std::vector<Report> normal_session_reports() {
  return {
      Report(activity(1, 10, 100.0, Activity::kJoin, "10.0.0.1")),
      Report(activity(1, 10, 103.0, Activity::kStartSubscription)),
      Report(activity(1, 10, 112.0, Activity::kMediaPlayerReady)),
      Report(qos(1, 10, 400.0, 2304, 2300)),
      Report(traffic(1, 10, 400.0, 1000000, 50000)),
      Report(qos(1, 10, 700.0, 2400, 2400)),
      Report(traffic(1, 10, 700.0, 1200000, 70000)),
      Report(activity(1, 10, 800.0, Activity::kLeave, "", false, true)),
  };
}

TEST(SessionsTest, NormalSessionReconstructed) {
  const auto reports = normal_session_reports();
  const auto log = reconstruct_sessions(reports);
  ASSERT_EQ(log.sessions.size(), 1u);
  const auto& s = log.sessions[0];
  EXPECT_TRUE(s.is_normal());
  EXPECT_DOUBLE_EQ(*s.duration(), 700.0);
  EXPECT_DOUBLE_EQ(*s.start_subscription_delay(), 3.0);
  EXPECT_DOUBLE_EQ(*s.media_ready_delay(), 12.0);
  EXPECT_DOUBLE_EQ(*s.buffering_delay(), 9.0);
  EXPECT_TRUE(s.private_address);
  EXPECT_EQ(s.bytes_down, 2200000u);
  EXPECT_EQ(s.bytes_up, 120000u);
  ASSERT_EQ(s.qos.size(), 2u);
  EXPECT_NEAR(*s.continuity(), (2300.0 + 2400.0) / (2304.0 + 2400.0), 1e-12);
}

TEST(SessionsTest, ObservedTypeFromFlags) {
  // Private + outgoing only -> NAT.
  const auto reports = normal_session_reports();
  const auto log = reconstruct_sessions(reports);
  EXPECT_EQ(log.sessions[0].observed_type(), net::ConnectionType::kNat);
}

TEST(SessionsTest, AbortiveSessionNotNormal) {
  std::vector<Report> reports = {
      Report(activity(2, 20, 50.0, Activity::kJoin, "8.8.4.4")),
      Report(activity(2, 20, 95.0, Activity::kLeave, "", false, true)),
  };
  const auto log = reconstruct_sessions(reports);
  ASSERT_EQ(log.sessions.size(), 1u);
  EXPECT_FALSE(log.sessions[0].is_normal());
  EXPECT_DOUBLE_EQ(*log.sessions[0].duration(), 45.0);
  EXPECT_FALSE(log.sessions[0].media_ready_delay().has_value());
  EXPECT_FALSE(log.sessions[0].continuity().has_value());
}

TEST(SessionsTest, CrashedSessionHasNoLeave) {
  std::vector<Report> reports = {
      Report(activity(3, 30, 10.0, Activity::kJoin, "9.9.9.9")),
      Report(activity(3, 30, 12.0, Activity::kStartSubscription)),
      Report(activity(3, 30, 20.0, Activity::kMediaPlayerReady)),
  };
  const auto log = reconstruct_sessions(reports);
  EXPECT_FALSE(log.sessions[0].leave_time.has_value());
  EXPECT_FALSE(log.sessions[0].duration().has_value());
  EXPECT_FALSE(log.sessions[0].is_normal());
}

TEST(SessionsTest, SessionsSortedByJoinTime) {
  std::vector<Report> reports = {
      Report(activity(1, 2, 200.0, Activity::kJoin)),
      Report(activity(2, 1, 100.0, Activity::kJoin)),
      Report(activity(3, 3, 150.0, Activity::kJoin)),
  };
  const auto log = reconstruct_sessions(reports);
  ASSERT_EQ(log.sessions.size(), 3u);
  EXPECT_EQ(log.sessions[0].session_id, 1u);
  EXPECT_EQ(log.sessions[1].session_id, 3u);
  EXPECT_EQ(log.sessions[2].session_id, 2u);
}

TEST(SessionsTest, RetryCounting) {
  // User 5: two failed attempts, then success, then another session.
  std::vector<Report> reports = {
      Report(activity(5, 50, 10.0, Activity::kJoin)),
      Report(activity(5, 50, 40.0, Activity::kLeave)),
      Report(activity(5, 51, 45.0, Activity::kJoin)),
      Report(activity(5, 51, 80.0, Activity::kLeave)),
      Report(activity(5, 52, 90.0, Activity::kJoin)),
      Report(activity(5, 52, 100.0, Activity::kMediaPlayerReady)),
      Report(activity(5, 52, 500.0, Activity::kLeave)),
      Report(activity(5, 53, 600.0, Activity::kJoin)),
      Report(activity(5, 53, 700.0, Activity::kLeave)),
  };
  const auto log = reconstruct_sessions(reports);
  ASSERT_EQ(log.users.size(), 1u);
  EXPECT_EQ(log.users[0].retries_before_success, 2u);
  EXPECT_TRUE(log.users[0].ever_succeeded);
  EXPECT_EQ(log.users[0].session_indices.size(), 4u);
}

TEST(SessionsTest, NeverSucceededUser) {
  std::vector<Report> reports = {
      Report(activity(6, 60, 10.0, Activity::kJoin)),
      Report(activity(6, 60, 40.0, Activity::kLeave)),
      Report(activity(6, 61, 50.0, Activity::kJoin)),
      Report(activity(6, 61, 90.0, Activity::kLeave)),
  };
  const auto log = reconstruct_sessions(reports);
  ASSERT_EQ(log.users.size(), 1u);
  EXPECT_FALSE(log.users[0].ever_succeeded);
  EXPECT_EQ(log.users[0].retries_before_success, 2u);
}

TEST(SessionsTest, UsersSortedById) {
  std::vector<Report> reports = {
      Report(activity(9, 90, 10.0, Activity::kJoin)),
      Report(activity(3, 91, 20.0, Activity::kJoin)),
      Report(activity(7, 92, 30.0, Activity::kJoin)),
  };
  const auto log = reconstruct_sessions(reports);
  ASSERT_EQ(log.users.size(), 3u);
  EXPECT_EQ(log.users[0].user_id, 3u);
  EXPECT_EQ(log.users[1].user_id, 7u);
  EXPECT_EQ(log.users[2].user_id, 9u);
}

TEST(SessionsTest, PartnerChangesCounted) {
  PartnerReport pr;
  pr.header = {1, 70, 300.0};
  pr.partner_count = 4;
  pr.changes = {{10, true, false}, {11, true, true}, {10, false, false}};
  std::vector<Report> reports = {
      Report(activity(1, 70, 10.0, Activity::kJoin)),
      Report(pr),
  };
  const auto log = reconstruct_sessions(reports);
  EXPECT_EQ(log.sessions[0].partner_changes, 3u);
}

TEST(SessionsTest, EndToEndThroughLogServer) {
  LogServer server;
  for (const auto& r : normal_session_reports()) server.submit(r);
  std::size_t malformed = 0;
  const auto parsed = server.parse_all(&malformed);
  EXPECT_EQ(malformed, 0u);
  const auto log = reconstruct_sessions(parsed);
  ASSERT_EQ(log.sessions.size(), 1u);
  EXPECT_TRUE(log.sessions[0].is_normal());
}

TEST(LogServerTest, SaveLoadRoundTrip) {
  LogServer server;
  for (const auto& r : normal_session_reports()) server.submit(r);
  const std::string path = ::testing::TempDir() + "/coolstream_log_test.txt";
  ASSERT_TRUE(server.save(path));
  LogServer loaded;
  ASSERT_TRUE(loaded.load(path));
  EXPECT_EQ(loaded.lines(), server.lines());
}

TEST(LogServerTest, MalformedLinesCounted) {
  LogServer server;
  server.submit_raw("this is not a log string");
  server.submit_raw("type=qos&uid=1&sid=2&t=3&due=5&ontime=5");
  std::size_t malformed = 0;
  const auto parsed = server.parse_all(&malformed);
  EXPECT_EQ(parsed.size(), 1u);
  EXPECT_EQ(malformed, 1u);
}

TEST(LogServerTest, LoadMissingFileFails) {
  LogServer server;
  EXPECT_FALSE(server.load("/nonexistent/dir/file.log"));
}

TEST(LogServerTest, LoadDirectoryFails) {
  // A directory opens as a stream, but its first read fails.
  LogServer server;
  EXPECT_FALSE(server.load(::testing::TempDir()));
  EXPECT_TRUE(server.lines().empty());
}

}  // namespace
}  // namespace coolstream::logging
