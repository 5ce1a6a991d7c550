// End-to-end health across sub-stream counts: the protocol must work for
// any K up to the buffer-map lane capacity (kMaxSubstreams = 8), not just
// the deployed 4.
#include <gtest/gtest.h>

#include "core/system.h"
#include "logging/log_server.h"
#include "logging/sessions.h"
#include "workload/scenario.h"

namespace coolstream::core {
namespace {

class SubstreamSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(SubstreamSweepTest, SmallBroadcastStaysHealthy) {
  const int k = GetParam();
  workload::Scenario s = workload::Scenario::steady(80, units::Duration(900.0));
  s.system.server_count = 2;
  s.params.substream_count = k;
  s.params.block_rate = 2.0 * k;  // keep 2 blocks/s per sub-stream
  ASSERT_NO_THROW(s.params.validate());

  sim::Simulation simulation(1000 + static_cast<std::uint64_t>(k));
  logging::LogServer log;
  workload::ScenarioRunner runner(simulation, s, &log);
  runner.run();
  System& sys = runner.system();

  const auto sessions = logging::reconstruct_sessions(log.parse_all());
  ASSERT_GT(sessions.sessions.size(), 20u);

  std::uint64_t due = 0;
  std::uint64_t on_time = 0;
  for (const auto& session : sessions.sessions) {
    for (const auto& q : session.qos) {
      due += q.blocks_due;
      on_time += q.blocks_on_time;
    }
  }
  ASSERT_GT(due, 0u) << "K=" << k;
  EXPECT_GT(static_cast<double>(on_time) / static_cast<double>(due), 0.9)
      << "K=" << k;

  // Structural sanity for this K: nearly every playing viewer holds at
  // least one subscription (a freshly-orphaned viewer mid-reselect is a
  // legitimate transient), and intra-node spread stays inside the buffer.
  std::size_t playing = 0;
  std::size_t orphaned = 0;
  for (net::NodeId id = 0;; ++id) {
    const Peer* p = sys.peer(id);
    if (p == nullptr) break;
    if (!p->alive() || p->kind() != PeerKind::kViewer) continue;
    if (p->phase() != PeerPhase::kPlaying) continue;
    ++playing;
    int subscribed = 0;
    for (const SubstreamId j : substreams(k)) {
      if (p->parent_of(j) != net::kInvalidNode) ++subscribed;
    }
    if (subscribed == 0) ++orphaned;
    EXPECT_LE(p->sync().spread(), s.params.buffer_block_count() + BlockCount(1));
  }
  ASSERT_GT(playing, 0u);
  EXPECT_LE(static_cast<double>(orphaned) / static_cast<double>(playing),
            0.1)
      << "K=" << k;

  EXPECT_EQ(sys.stats().blocks_transferred > 0, true);
}

INSTANTIATE_TEST_SUITE_P(K, SubstreamSweepTest, ::testing::Values(1, 2, 4, 6, 8));

}  // namespace
}  // namespace coolstream::core
