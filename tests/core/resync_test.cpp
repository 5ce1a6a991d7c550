// Bounded playback latency and forward resync behaviour.
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

double playback_lag_seconds(const System& sys, const Peer& p, Tick now) {
  const auto live = global_of(SubstreamId(0), sys.source_head(SubstreamId(0), now),
                              sys.params().substream_count);
  return static_cast<double>((live - p.playhead()).value()) /
         sys.params().block_rate;
}

TEST(ResyncTest, PlaybackLagStaysBounded) {
  // A server that can push only 90% of the stream rate: without the lag
  // bound the viewer would drift behind without limit; with it, playback
  // stays within kMaxPlaybackLagSeconds (+ a resync-cooldown's worth of slack).
  sim::Simulation simulation(3);
  SystemConfig cfg;
  cfg.server_count = 1;
  cfg.server_capacity_bps = 0.9 * 768e3;
  cfg.server_max_partners = 4;
  System sys(simulation, fast_params(), cfg, nullptr);
  sys.start();
  simulation.run_until(sim::Time(30.0));
  const net::NodeId id = sys.join(nat_viewer(1, simulation.rng()));
  simulation.run_until(sim::Time(1800.0));

  const Peer* p = sys.peer(id);
  ASSERT_EQ(p->phase(), PeerPhase::kPlaying);
  EXPECT_GT(p->stats().resyncs, 0u);
  const double lag = playback_lag_seconds(sys, *p, simulation.now());
  EXPECT_LT(lag, kMaxPlaybackLagSeconds + 0.2 * kMaxPlaybackLagSeconds +
                     kResyncCooldownSeconds);
}

TEST(ResyncTest, HealthyViewerNeverResyncs) {
  sim::Simulation simulation(5);
  SystemConfig cfg;
  cfg.server_count = 1;
  cfg.server_capacity_bps = 5 * 768e3;
  cfg.server_max_partners = 4;
  System sys(simulation, fast_params(), cfg, nullptr);
  sys.start();
  simulation.run_until(sim::Time(30.0));
  const net::NodeId id = sys.join(nat_viewer(2, simulation.rng()));
  simulation.run_until(sim::Time(900.0));
  const Peer* p = sys.peer(id);
  EXPECT_EQ(p->stats().resyncs, 0u);
  // And its lag is small: roughly T_p plus the startup buffering.
  const double lag = playback_lag_seconds(sys, *p, simulation.now());
  EXPECT_LT(lag, 35.0);
  EXPECT_GT(lag, 3.0);
}

TEST(ResyncTest, DeepSkipRestartsPastTheJumpedBlocks) {
  // A playing viewer whose sub-stream 0 fell out of its parent's cache
  // window: the window gap on lane 0 is deeper than kResyncSkipSeconds, so
  // the player re-anchors.  The new timeline must start after the blocks
  // lane 0 jumped over — they never arrive, so a timeline starting among
  // them would count them as played.  Two inputs: the other sub-streams
  // have already reached lane 0's new position, or they lag it (the
  // combined prefix then stops short of the jumped-over blocks).
  for (const bool others_lag : {false, true}) {
    SCOPED_TRACE(others_lag ? "other lanes lag" : "other lanes ahead");
    sim::Simulation simulation(5);
    SystemConfig cfg;
    cfg.server_count = 1;
    cfg.server_capacity_bps = 5 * 768e3;
    cfg.server_max_partners = 4;
    System sys(simulation, fast_params(), cfg, nullptr);
    sys.start();
    simulation.run_until(sim::Time(30.0));
    const net::NodeId id = sys.join(nat_viewer(3, simulation.rng()));
    simulation.run_until(sim::Time(300.0));
    Peer* p = sys.peer(id);
    ASSERT_EQ(p->phase(), PeerPhase::kPlaying);

    const int k = sys.params().substream_count;
    const SubstreamId lane(0);
    const auto deep = BlockCount(static_cast<std::int64_t>(
        2.0 * kResyncSkipSeconds * sys.params().substream_block_rate()));
    const SeqNum window_start = p->head(lane) + deep;
    if (!others_lag) {
      for (const SubstreamId j : substreams(k)) {
        while (j != lane && p->head(j) < window_start) p->sync().advance(j);
      }
    }
    const std::uint32_t resyncs = p->stats().resyncs;
    p->handle_window_gap(lane, window_start);

    ASSERT_EQ(p->stats().resyncs, resyncs + 1) << "not the deep-skip branch";
    EXPECT_GT(p->play_start_seq(),
              global_of(lane, window_start - BlockCount(1), k));
  }
}

TEST(ResyncTest, CapacityScaledPartnerBudget) {
  sim::Simulation simulation(7);
  System sys(simulation, fast_params(), SystemConfig{}, nullptr);
  auto budget_for = [&](double upload_bps) {
    PeerSpec spec;
    spec.kind = PeerKind::kViewer;
    spec.type = net::ConnectionType::kDirect;
    spec.upload_capacity = units::BitRate(upload_bps);
    Peer p(sys, 999, spec, units::SessionId(1), Tick(0.0));
    return sys.max_partners_of(p);
  };
  // Weak uplinks get the floor; strong uplinks hit the M ceiling.
  EXPECT_EQ(budget_for(0.0), kInitialPartnerTarget + 1);
  EXPECT_EQ(budget_for(100e3), kInitialPartnerTarget + 1);
  EXPECT_EQ(budget_for(20e6), sys.params().max_partners);
  // Monotone in capacity.
  int prev = 0;
  for (double bps : {0.2e6, 0.5e6, 1e6, 2e6, 4e6, 8e6}) {
    const int b = budget_for(bps);
    EXPECT_GE(b, prev);
    prev = b;
  }
}

}  // namespace
}  // namespace coolstream::core
