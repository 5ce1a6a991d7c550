// Structural invariants of the protocol state, checked after a long mixed
// scenario with churn: whatever the dynamics did, the bookkeeping must be
// consistent.
#include <gtest/gtest.h>

#include <optional>

#include "core/system.h"
#include "logging/log_server.h"
#include "workload/scenario.h"

namespace coolstream::core {
namespace {

class InvariantsTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(InvariantsTest, HoldAfterChurnyRun) {
  workload::Scenario scenario =
      workload::Scenario::steady(150, units::Duration(1200.0));
  scenario.system.server_count = 3;
  scenario.sessions.crash_fraction = 0.2;  // plenty of abrupt departures
  sim::Simulation simulation(GetParam());
  logging::LogServer log;
  workload::ScenarioRunner runner(simulation, scenario, &log);
  runner.run();
  System& sys = runner.system();

  const auto live_edge = sys.source_head(SubstreamId(0), simulation.now());
  std::size_t live_seen = 0;

  for (net::NodeId id = 0;; ++id) {
    const Peer* p = sys.peer(id);
    if (p == nullptr) break;
    if (!p->alive()) {
      // Dead peers are fully torn down.
      EXPECT_TRUE(p->partners().empty()) << id;
      EXPECT_TRUE(p->out_links().empty()) << id;
      EXPECT_FALSE(sys.is_live(id)) << id;
      continue;
    }
    ++live_seen;
    EXPECT_TRUE(sys.is_live(id)) << id;

    // Partner symmetry: every partner is alive and has us back.
    for (const PartnerView ps : p->partners()) {
      const Peer* q = sys.peer(ps.id());
      ASSERT_NE(q, nullptr);
      EXPECT_TRUE(q->alive()) << id << " keeps dead partner " << ps.id();
      EXPECT_TRUE(q->partners().contains(id))
          << "asymmetric partnership " << id << " <-> " << ps.id();
    }

    // Partner cap respected (small slack for in-flight acceptances).
    EXPECT_LE(p->partner_count(),
              static_cast<std::size_t>(sys.max_partners_of(*p)) + 2);

    // Parents are live partners; the parent serves us.
    for (const SubstreamId j : substreams(sys.params().substream_count)) {
      const net::NodeId parent = p->parent_of(j);
      if (parent == net::kInvalidNode) continue;
      const Peer* q = sys.peer(parent);
      ASSERT_NE(q, nullptr);
      EXPECT_TRUE(q->alive()) << id << " subscribed to dead " << parent;
      EXPECT_TRUE(p->partners().contains(parent))
          << id << " subscribed to non-partner " << parent;
      bool served = false;
      for (const auto& l : q->out_links()) {
        if (l.child == id && l.substream == j) served = true;
      }
      EXPECT_TRUE(served) << parent << " lost out-link to " << id;
    }

    // Heads never exceed the encoder position (with server-lag slack).
    for (const SubstreamId j : substreams(sys.params().substream_count)) {
      EXPECT_LE(p->head(j), live_edge + BlockCount(1)) << id;
    }

    // Playout accounting is consistent.
    EXPECT_LE(p->stats().blocks_on_time, p->stats().blocks_due);
    if (p->phase() == PeerPhase::kPlaying) {
      EXPECT_LE(p->playhead(),
                global_of(SubstreamId(0), live_edge,
                          sys.params().substream_count) +
                    BlockCount(sys.params().substream_count));
    }
  }
  EXPECT_EQ(live_seen, sys.live_viewer_count() +
                           static_cast<std::size_t>(
                               sys.config().server_count));
  EXPECT_EQ(live_seen, sys.live_nodes().size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, InvariantsTest,
                         ::testing::Values(11u, 22u, 33u));

TEST(GossipTest, MembershipKnowledgeSpreads) {
  // With a tiny boot-strap list, peers must still learn about more of the
  // overlay than the list gave them — via gossip and partnership updates.
  workload::Scenario scenario =
      workload::Scenario::steady(80, units::Duration(600.0));
  scenario.system.server_count = 2;
  scenario.params.bootstrap_list_size = 2;
  scenario.params.mcache_size = 32;
  sim::Simulation simulation(7);
  logging::LogServer log;
  workload::ScenarioRunner runner(simulation, scenario, &log);
  runner.run();
  System& sys = runner.system();

  std::size_t viewers = 0;
  std::size_t knows_more = 0;
  for (net::NodeId id = 0;; ++id) {
    const Peer* p = sys.peer(id);
    if (p == nullptr) break;
    if (!p->alive() || p->kind() != PeerKind::kViewer) continue;
    // Only count peers that have been in the system for a while.
    if (simulation.now() - p->joined_at() < units::Duration(120.0)) continue;
    ++viewers;
    if (p->mcache().size() >
        static_cast<std::size_t>(scenario.params.bootstrap_list_size)) {
      ++knows_more;
    }
  }
  ASSERT_GT(viewers, 10u);
  EXPECT_GT(static_cast<double>(knows_more) / static_cast<double>(viewers),
            0.8);
}

}  // namespace
}  // namespace coolstream::core
