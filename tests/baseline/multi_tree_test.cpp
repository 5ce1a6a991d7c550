#include "baseline/multi_tree.h"

#include <gtest/gtest.h>

namespace coolstream::baseline {
namespace {

MultiTreeParams fast_params() {
  MultiTreeParams p;
  p.root_capacity_bps = 16 * 768e3;  // 4 children per stripe at the root
  return p;
}

TEST(MultiTreeTest, RootComesUp) {
  sim::Simulation simulation(1);
  MultiTreeOverlay mt(simulation, fast_params());
  mt.start();
  EXPECT_EQ(mt.live_count(), 1u);
  simulation.run_until(sim::Time(5.0));
}

TEST(MultiTreeTest, JoinAttachesToEveryStripe) {
  sim::Simulation simulation(2);
  MultiTreeOverlay mt(simulation, fast_params());
  mt.start();
  const auto a = mt.join(2 * 768e3, true);
  simulation.run_until(sim::Time(5.0));
  for (int stripe = 0; stripe < 4; ++stripe) {
    EXPECT_EQ(mt.depth(a, stripe), 1) << stripe;
  }
}

TEST(MultiTreeTest, StableTreesDeliverEverything) {
  sim::Simulation simulation(3);
  MultiTreeOverlay mt(simulation, fast_params());
  mt.start();
  std::vector<net::NodeId> ids;
  for (int i = 0; i < 10; ++i) ids.push_back(mt.join(3 * 768e3, true));
  simulation.run_until(sim::Time(300.0));
  EXPECT_GT(mt.average_continuity(), 0.999);
  EXPECT_DOUBLE_EQ(mt.attached_fraction(), 1.0);
  for (auto id : ids) EXPECT_GT(mt.stats(id).blocks_due, 0u);
}

TEST(MultiTreeTest, UnreachableNodesAreLeavesEverywhere) {
  sim::Simulation simulation(4);
  MultiTreeParams p = fast_params();
  p.root_capacity_bps = 768e3;  // exactly 1 child per stripe
  MultiTreeOverlay mt(simulation, p);
  mt.start();
  const auto nat = mt.join(10e6, /*reachable=*/false);
  simulation.run_until(sim::Time(3.0));
  for (int stripe = 0; stripe < 4; ++stripe) {
    ASSERT_EQ(mt.depth(nat, stripe), 1);
  }
  // Its big uplink cannot be used: the next join finds no slots anywhere.
  const auto second = mt.join(1e6, true);
  simulation.run_until(sim::Time(30.0));
  int attached_stripes = 0;
  for (int stripe = 0; stripe < 4; ++stripe) {
    if (mt.depth(second, stripe) >= 0) ++attached_stripes;
  }
  EXPECT_EQ(attached_stripes, 0);
}

TEST(MultiTreeTest, DepartureBreaksOnlyThePrimaryStripe) {
  sim::Simulation simulation(5);
  MultiTreeParams p = fast_params();
  p.root_capacity_bps = 4 * 768e3;  // root: 1 child per stripe
  p.repair_delay = 10.0;
  MultiTreeOverlay mt(simulation, p);
  mt.start();
  // a: interior candidate (primary stripe 0), b hangs below it there.
  const auto a = mt.join(4 * 768e3, true);
  simulation.run_until(sim::Time(3.0));
  const auto b = mt.join(4 * 768e3, true);
  simulation.run_until(sim::Time(6.0));
  // b's stripe-0 parent must be a (root slot taken); other stripes: b is
  // under the root or a's primary-only rule keeps it at the root... count
  // how many stripes b loses when a leaves.
  int orphaned = 0;
  mt.leave(a);
  for (int stripe = 0; stripe < 4; ++stripe) {
    if (mt.depth(b, stripe) == -1) ++orphaned;
  }
  // Interior-disjointness: a was interior only in its primary stripe, so
  // at most one stripe of b is orphaned.
  EXPECT_LE(orphaned, 1);
  simulation.run_until(sim::Time(30.0));
  for (int stripe = 0; stripe < 4; ++stripe) {
    EXPECT_GE(mt.depth(b, stripe), 0) << "stripe " << stripe;
  }
}

TEST(MultiTreeTest, ChurnDegradesLessThanSingleStripeOutage) {
  // Qualitative SplitStream claim: losing one interior node costs at most
  // 1/K of the rate.  Continuity under churn stays higher than a
  // same-churn single tree (exercised fully in bench_tree_vs_mesh; here
  // just check the multi-tree keeps very high continuity under mild
  // churn).
  sim::Simulation simulation(6);
  MultiTreeParams p = fast_params();
  p.root_capacity_bps = 8 * 768e3;
  MultiTreeOverlay mt(simulation, p);
  mt.start();
  std::vector<net::NodeId> live;
  for (int i = 0; i < 20; ++i) live.push_back(mt.join(3 * 768e3, true));
  simulation.run_until(sim::Time(120.0));
  sim::Rng& rng = simulation.rng();
  for (int round = 0; round < 15; ++round) {
    simulation.run_until(simulation.now() + units::Duration(30.0));
    const auto pick = rng.below(live.size());
    mt.leave(live[pick]);
    live[pick] = mt.join(3 * 768e3, true);
  }
  simulation.run_until(simulation.now() + units::Duration(120.0));
  EXPECT_GT(mt.average_continuity(), 0.9);
}

TEST(MultiTreeTest, LeaveIsIdempotent) {
  sim::Simulation simulation(7);
  MultiTreeOverlay mt(simulation, fast_params());
  mt.start();
  const auto a = mt.join(1e6, true);
  simulation.run_until(sim::Time(3.0));
  mt.leave(a);
  mt.leave(a);
  EXPECT_EQ(mt.live_count(), 1u);
}

}  // namespace
}  // namespace coolstream::baseline
