#include "baseline/tree_overlay.h"

#include <gtest/gtest.h>

#include <algorithm>

namespace coolstream::baseline {
namespace {

constexpr double kR = 768e3;  // stream rate

TreeParams params(int stripes, double root_capacity_bps) {
  TreeParams p;
  p.root_capacity_bps = root_capacity_bps;
  p.stripes = stripes;
  return p;
}

/// The cases below hold for the single tree and for the striped one.
class TreeOverlayTest : public ::testing::TestWithParam<int> {
 protected:
  int stripes() const { return GetParam(); }
  /// The root fathers `per_stripe` children in every stripe.
  TreeParams root_with(double per_stripe) const {
    return params(stripes(), per_stripe * kR);
  }
};

TEST_P(TreeOverlayTest, RootComesUp) {
  sim::Simulation simulation(1);
  TreeOverlay tree(simulation, root_with(10));
  tree.start();
  EXPECT_EQ(tree.live_count(), 1u);
  simulation.run_until(sim::Time(10.0));
}

TEST_P(TreeOverlayTest, JoinAttachesNearRootInEveryStripe) {
  sim::Simulation simulation(2);
  TreeOverlay tree(simulation, root_with(4));
  tree.start();
  const auto a = tree.join(2 * kR, true);
  simulation.run_until(sim::Time(5.0));
  for (int stripe = 0; stripe < stripes(); ++stripe) {
    EXPECT_EQ(tree.depth(a, stripe), 1) << stripe;
  }
  EXPECT_TRUE(tree.is_live(a));
}

TEST_P(TreeOverlayTest, DegreeConstraintForcesDeeperAttachment) {
  sim::Simulation simulation(3);
  TreeOverlay tree(simulation, root_with(2));
  tree.start();
  std::vector<net::NodeId> ids;
  for (int i = 0; i < 6; ++i) {
    ids.push_back(tree.join(2 * kR, true));
    simulation.run_until(simulation.now() + units::Duration(3.0));
  }
  int max_depth = 0;
  for (auto id : ids) max_depth = std::max(max_depth, tree.depth(id, 0));
  EXPECT_GE(max_depth, 2);
}

TEST_P(TreeOverlayTest, UnreachableNodesStayLeaves) {
  sim::Simulation simulation(4);
  TreeOverlay tree(simulation, params(stripes(), kR + 1));  // 1 per stripe
  tree.start();
  const auto nat = tree.join(10e6, /*reachable=*/false);
  simulation.run_until(sim::Time(3.0));
  for (int stripe = 0; stripe < stripes(); ++stripe) {
    ASSERT_EQ(tree.depth(nat, stripe), 1);
  }
  // Big capacity but unreachable: cannot father the next join, which
  // therefore stays detached (every tree is full).
  const auto second = tree.join(1e6, true);
  simulation.run_until(sim::Time(30.0));
  for (int stripe = 0; stripe < stripes(); ++stripe) {
    EXPECT_EQ(tree.depth(second, stripe), -1) << stripe;
  }
}

TEST_P(TreeOverlayTest, StableTreeDeliversEverything) {
  sim::Simulation simulation(5);
  TreeOverlay tree(simulation, root_with(4));
  tree.start();
  std::vector<net::NodeId> ids;
  for (int i = 0; i < 10; ++i) ids.push_back(tree.join(3 * kR, true));
  simulation.run_until(sim::Time(300.0));
  EXPECT_GT(tree.average_continuity(), 0.999);
  EXPECT_DOUBLE_EQ(tree.attached_fraction(), 1.0);
  for (auto id : ids) EXPECT_GT(tree.stats(id).blocks_due, 0u);
}

TEST_P(TreeOverlayTest, DepartureOrphansSubtree) {
  sim::Simulation simulation(6);
  TreeParams p = params(stripes(), kR + 1);  // a chain in stripe 0
  p.repair_delay = 5.0;
  TreeOverlay tree(simulation, p);
  tree.start();
  // a is interior in stripe 0, its primary; b hangs below it there.
  const auto a = tree.join(kR + 1, true);
  simulation.run_until(sim::Time(3.0));
  const auto b = tree.join(kR + 1, true);
  simulation.run_until(sim::Time(6.0));
  ASSERT_EQ(tree.depth(a, 0), 1);
  ASSERT_EQ(tree.depth(b, 0), 2);

  tree.leave(a);
  EXPECT_FALSE(tree.is_live(a));
  EXPECT_EQ(tree.depth(b, 0), -1);  // orphaned
  simulation.run_until(sim::Time(20.0));
  EXPECT_EQ(tree.depth(b, 0), 1);  // re-attached under the root
  EXPECT_EQ(tree.stats(b).reattachments, 1u);
}

TEST_P(TreeOverlayTest, ChurnHurtsContinuity) {
  auto run = [this](double churn_interval) {
    sim::Simulation simulation(7);
    TreeParams p = params(stripes(), 4 * kR);
    p.repair_delay = 4.0;
    TreeOverlay tree(simulation, p);
    tree.start();
    std::vector<net::NodeId> ids;
    for (int i = 0; i < 24; ++i) ids.push_back(tree.join(2 * kR, true));
    simulation.run_until(sim::Time(60.0));
    // Periodically kill an interior node and replace it.
    double t = 60.0;
    std::size_t victim = 0;
    while (t < 600.0) {
      t = std::min(t + churn_interval, 600.0);
      simulation.run_until(sim::Time(t));
      if (t >= 600.0) break;
      // Kill the oldest live non-root node (likely interior).
      while (victim < ids.size() && !tree.is_live(ids[victim])) ++victim;
      if (victim < ids.size()) {
        tree.leave(ids[victim]);
        ids.push_back(tree.join(2 * kR, true));
        ++victim;
      }
    }
    simulation.run_until(sim::Time(700.0));
    return tree.average_continuity();
  };
  const double calm = run(1e9);  // no churn
  const double churny = run(20.0);
  EXPECT_GT(calm, churny);
  EXPECT_GT(calm, 0.99);
}

TEST_P(TreeOverlayTest, LeaveIsIdempotent) {
  sim::Simulation simulation(8);
  TreeOverlay tree(simulation, root_with(10));
  tree.start();
  const auto a = tree.join(1e6, true);
  simulation.run_until(sim::Time(3.0));
  tree.leave(a);
  tree.leave(a);
  EXPECT_EQ(tree.live_count(), 1u);
}

INSTANTIATE_TEST_SUITE_P(Stripes, TreeOverlayTest, ::testing::Values(1, 4),
                         [](const auto& p) {
                           return "K" + std::to_string(p.param);
                         });

TEST(StripedTreeTest, DepartureBreaksOnlyThePrimaryStripe) {
  sim::Simulation simulation(5);
  TreeParams p = params(4, 4 * kR);  // root: 1 child per stripe
  p.repair_delay = 10.0;
  TreeOverlay tree(simulation, p);
  tree.start();
  // a: interior candidate (primary stripe 0), b hangs below it there.
  const auto a = tree.join(4 * kR, true);
  simulation.run_until(sim::Time(3.0));
  const auto b = tree.join(4 * kR, true);
  simulation.run_until(sim::Time(6.0));
  int orphaned = 0;
  tree.leave(a);
  for (int stripe = 0; stripe < 4; ++stripe) {
    if (tree.depth(b, stripe) == -1) ++orphaned;
  }
  // Interior-disjointness: a was interior only in its primary stripe, so
  // at most one stripe of b is orphaned.
  EXPECT_LE(orphaned, 1);
  simulation.run_until(sim::Time(30.0));
  for (int stripe = 0; stripe < 4; ++stripe) {
    EXPECT_GE(tree.depth(b, stripe), 0) << "stripe " << stripe;
  }
}

TEST(StripedTreeTest, MildChurnKeepsHighContinuity) {
  // SplitStream's claim: losing one interior node costs at most 1/K of
  // the rate (the full comparison is bench_tree_vs_mesh).
  sim::Simulation simulation(6);
  TreeOverlay tree(simulation, params(4, 8 * kR));
  tree.start();
  std::vector<net::NodeId> live;
  for (int i = 0; i < 20; ++i) live.push_back(tree.join(3 * kR, true));
  simulation.run_until(sim::Time(120.0));
  sim::Rng& rng = simulation.rng();
  for (int round = 0; round < 15; ++round) {
    simulation.run_until(simulation.now() + units::Duration(30.0));
    const auto pick = rng.below(live.size());
    tree.leave(live[pick]);
    live[pick] = tree.join(3 * kR, true);
  }
  simulation.run_until(simulation.now() + units::Duration(120.0));
  EXPECT_GT(tree.average_continuity(), 0.9);
}

TEST(StripedTreeTest, ChurnTotalsArePinned) {
  // Mixed capacities, 40 % reachable, a root with two slots per stripe
  // and a departure every 7 s: full trees, retries and orphaned subtrees
  // all occur.  The totals are those of the four-stripe overlay before
  // the single tree was folded into it.
  sim::Simulation simulation(29);
  TreeOverlay tree(simulation, params(4, 8 * kR));
  tree.start();
  sim::Rng& rng = simulation.rng();
  std::vector<net::NodeId> ids;
  std::vector<net::NodeId> live;
  auto join = [&] {
    const double capacity = (1.0 + 3.0 * rng.uniform()) * kR;
    const bool reachable = rng.below(10) < 4;
    ids.push_back(tree.join(capacity, reachable));
    return ids.back();
  };
  for (int i = 0; i < 30; ++i) {
    live.push_back(join());
    simulation.run_until(simulation.now() + units::Duration(0.5));
  }
  simulation.run_until(sim::Time(60.0));
  for (int round = 0; round < 40; ++round) {
    simulation.run_until(simulation.now() + units::Duration(7.0));
    const auto pick = rng.below(live.size());
    tree.leave(live[pick]);
    live[pick] = join();
  }
  simulation.run_until(simulation.now() + units::Duration(60.0));
  std::uint64_t due = 0;
  std::uint64_t on_time = 0;
  std::uint64_t reattachments = 0;
  for (auto id : ids) {
    due += tree.stats(id).blocks_due;
    on_time += tree.stats(id).blocks_on_time;
    reattachments += tree.stats(id).reattachments;
  }
  EXPECT_EQ(due, 50036u);
  EXPECT_EQ(on_time, 33812u);
  EXPECT_EQ(reattachments, 80u);
}

}  // namespace
}  // namespace coolstream::baseline
