// Player semantics under constrained parents: stalls, deadline skips and
// the continuity accounting they produce.
#include <gtest/gtest.h>

#include "core/system.h"
#include "net/address.h"

namespace coolstream::core {
namespace {

Params fast_params() {
  Params p;
  p.status_report_period = 30.0;
  return p;
}

PeerSpec nat_viewer(std::uint64_t user, sim::Rng& rng) {
  PeerSpec s;
  s.user_id = user;
  s.kind = PeerKind::kViewer;
  s.type = net::ConnectionType::kNat;
  s.address = net::random_private_address(rng);
  s.upload_capacity = units::BitRate(0.0);
  return s;
}

/// One server of the given capacity, one NAT viewer; returns the viewer.
struct Rig {
  sim::Simulation simulation;
  System sys;
  net::NodeId viewer = net::kInvalidNode;

  Rig(double server_capacity_bps, std::uint64_t seed)
      : simulation(seed),
        sys(simulation, fast_params(),
            [server_capacity_bps] {
              SystemConfig c;
              c.server_count = 1;
              c.server_capacity_bps = server_capacity_bps;
              c.server_max_partners = 4;
              return c;
            }(),
            nullptr) {
    sys.start();
    simulation.run_until(sim::Time(30.0));
    viewer = sys.join(nat_viewer(1, simulation.rng()));
  }
};

TEST(PlayoutTest, AmpleParentNeverStalls) {
  Rig rig(4 * 768e3, 3);
  rig.simulation.run_until(sim::Time(300.0));
  const Peer* p = rig.sys.peer(rig.viewer);
  ASSERT_EQ(p->phase(), PeerPhase::kPlaying);
  EXPECT_GT(p->stats().blocks_due, 1000u);
  EXPECT_EQ(p->stats().blocks_due, p->stats().blocks_on_time);
  EXPECT_EQ(p->stats().stalls, 0u);
  EXPECT_EQ(p->stats().stall_seconds, units::Duration::zero());
}

TEST(PlayoutTest, UnderProvisionedParentStallsButBoundsMisses) {
  // Server can push only ~80% of the stream rate: the viewer cannot keep
  // up.  The player first stalls (shifting deadlines, no misses); once the
  // accumulated lag exceeds the parent's cache window (B = 120 s), blocks
  // are gone before they can be fetched and misses appear — at a bounded
  // rate, not wholesale.
  Rig rig(0.8 * 768e3, 5);
  rig.simulation.run_until(sim::Time(1200.0));
  const Peer* p = rig.sys.peer(rig.viewer);
  ASSERT_EQ(p->phase(), PeerPhase::kPlaying);
  const auto& st = p->stats();
  EXPECT_GT(st.stalls, 0u);
  EXPECT_GT(st.stall_seconds, units::Duration::zero());
  EXPECT_GT(st.blocks_due, 0u);
  // 20% shortfall: the viewer cannot play in real time.  Its lone parent
  // is the only source, so the deficit surfaces as stalls and forward
  // resyncs once the lag bound trips; the player consumed well below
  // real time.
  EXPECT_GT(st.resyncs, 0u);
  const double played_seconds =
      static_cast<double>(st.blocks_due) / 8.0;
  EXPECT_LT(played_seconds, 0.9 * rig.simulation.now().value());
}

TEST(PlayoutTest, StallSecondsGrowWithShortfall) {
  Rig mild(0.95 * 768e3, 7);
  Rig severe(0.6 * 768e3, 7);
  mild.simulation.run_until(sim::Time(400.0));
  severe.simulation.run_until(sim::Time(400.0));
  const auto& m = mild.sys.peer(mild.viewer)->stats();
  const auto& s = severe.sys.peer(severe.viewer)->stats();
  EXPECT_GT(s.stall_seconds, m.stall_seconds);
}

TEST(PlayoutTest, ContinuityFromLogMatchesPeerStats) {
  sim::Simulation simulation(11);
  logging::LogServer log;
  SystemConfig cfg;
  cfg.server_count = 1;
  cfg.server_capacity_bps = 3 * 768e3;
  cfg.server_max_partners = 4;
  Params params = fast_params();
  System sys(simulation, params, cfg, &log);
  sys.start();
  simulation.run_until(sim::Time(10.0));
  const net::NodeId id = sys.join(nat_viewer(9, simulation.rng()));
  simulation.run_until(sim::Time(400.0));

  const Peer* p = sys.peer(id);
  std::uint64_t due = 0;
  std::uint64_t on_time = 0;
  for (const auto& r : log.parse_all()) {
    if (const auto* q = std::get_if<logging::QosReport>(&r)) {
      due += q->blocks_due;
      on_time += q->blocks_on_time;
    }
  }
  // Reports lag by at most one period; totals must not exceed stats.
  EXPECT_LE(due, p->stats().blocks_due);
  EXPECT_LE(on_time, p->stats().blocks_on_time);
  EXPECT_GT(due, p->stats().blocks_due / 2);
  EXPECT_EQ(p->stats().blocks_due - p->stats().blocks_on_time,
            due - on_time);  // the lone viewer misses nothing
}

TEST(McacheReachabilityTest, SampleCanFilterOnEntries) {
  sim::Rng rng(1);
  Mcache m(8, McachePolicy::kRandomReplace);
  m.upsert(McacheEntry{Tick(0.0), 1, true}, rng);
  m.upsert(McacheEntry{Tick(0.0), 2, false}, rng);
  m.upsert(McacheEntry{Tick(0.0), 3, true}, rng);
  const auto sample = m.sample(
      8, rng, [](const McacheEntry& e) { return !e.reachable; });
  ASSERT_EQ(sample.size(), 2u);
  for (const auto& e : sample) EXPECT_TRUE(e.reachable);
}

TEST(McacheReachabilityTest, UpsertRefreshesReachability) {
  sim::Rng rng(2);
  Mcache m(4, McachePolicy::kRandomReplace);
  m.upsert(McacheEntry{Tick(0.0), 7, false}, rng);
  m.upsert(McacheEntry{Tick(0.0), 7, true}, rng);
  EXPECT_TRUE(m.entry(0).reachable);
}

TEST(ReachabilityFilterTest, NoAttemptsWastedOnNatPeers) {
  // Population: servers + NAT viewers only.  Every partnership attempt
  // must target a server (the only reachable nodes), so the rejection
  // count stays small (only "server full" rejections are possible).
  sim::Simulation simulation(13);
  SystemConfig cfg;
  cfg.server_count = 2;
  cfg.server_capacity_bps = 20e6;
  cfg.server_max_partners = 40;
  System sys(simulation, fast_params(), cfg, nullptr);
  sys.start();
  simulation.run_until(sim::Time(5.0));
  for (int i = 0; i < 12; ++i) {
    sys.join(nat_viewer(static_cast<std::uint64_t>(100 + i),
                        simulation.rng()));
  }
  simulation.run_until(sim::Time(200.0));
  EXPECT_EQ(sys.stats().partnership_rejects, 0u);
  EXPECT_GT(sys.stats().partnership_accepts, 0u);
}

}  // namespace
}  // namespace coolstream::core
