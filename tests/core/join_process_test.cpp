// The §IV-A join process in detail: initial offset rule, media-ready
// threshold, buffer-map aggregation.
#include <gtest/gtest.h>

#include "core/system.h"
#include "logging/sessions.h"
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

TEST(JoinProcessTest, InitialOffsetIsTpBehindPartnerMax) {
  sim::Simulation simulation(3);
  Params params = fast_params();
  SystemConfig cfg;
  cfg.server_count = 2;
  cfg.server_capacity_bps = 10e6;
  cfg.server_max_partners = 8;
  System sys(simulation, params, cfg, nullptr);
  sys.start();
  // Join late so the stream has plenty of history.
  simulation.run_until(sim::Time(200.0));
  const net::NodeId id = sys.join(nat_viewer(1, simulation.rng()));

  // Capture the moment start-subscription happens.
  sim::Time start_sub(-1.0);
  sys.observer = [&](net::NodeId, SessionEvent e) {
    if (e == SessionEvent::kStartSubscription && start_sub < sim::Time(0.0)) {
      start_sub = simulation.now();
    }
  };
  simulation.run_until(sim::Time(230.0));
  ASSERT_GT(start_sub, sim::Time(0.0));

  const Peer* p = sys.peer(id);
  // play_start_seq = (m - T_p) * K with m ~ the live edge at decision
  // time.  Allow generous slack for latency and aggregation delay.
  const SeqNum live_at_start = sys.source_head(SubstreamId(0), start_sub);
  const auto expected =
      global_of(SubstreamId(0), live_at_start - params.tp_block_count(),
                params.substream_count);
  EXPECT_NEAR(static_cast<double>(p->play_start_seq().value()),
              static_cast<double>(expected.value()),
              4.0 * params.block_rate);  // within ~4 s of stream
}

TEST(JoinProcessTest, MediaReadyRequiresBufferedSpan) {
  // Ready must come at least kMediaReadyBufferSeconds*block_rate blocks
  // of contiguous delivery after start-subscription — with an effectively
  // infinite-capacity parent it arrives quickly but never instantly.
  sim::Simulation simulation(5);
  Params params = fast_params();
  params.max_catchup_factor = 2.0;  // bound the fill rate
  SystemConfig cfg;
  cfg.server_count = 1;
  cfg.server_capacity_bps = 50e6;
  cfg.server_max_partners = 4;
  System sys(simulation, params, cfg, nullptr);

  sim::Time start_sub(-1.0);
  sim::Time ready(-1.0);
  sys.observer = [&](net::NodeId, SessionEvent e) {
    if (e == SessionEvent::kStartSubscription && start_sub < sim::Time(0.0)) {
      start_sub = simulation.now();
    }
    if (e == SessionEvent::kMediaReady && ready < sim::Time(0.0)) {
      ready = simulation.now();
    }
  };
  sys.start();
  simulation.run_until(sim::Time(100.0));
  sys.join(nat_viewer(2, simulation.rng()));
  simulation.run_until(sim::Time(200.0));
  ASSERT_GT(start_sub, sim::Time(0.0));
  ASSERT_GT(ready, sim::Time(0.0));
  // At 2x catch-up, filling kMediaReadyBufferSeconds of video takes at
  // least half that of wall clock.
  EXPECT_GE(ready - start_sub,
            units::Duration(kMediaReadyBufferSeconds / 2.0 - 1.0));
  EXPECT_LE(ready - start_sub, units::Duration(60.0));
}

TEST(JoinProcessTest, JoinWithNoActivePeersRetriesViaBootstrap) {
  // A viewer joining an empty system (no servers!) cannot subscribe; it
  // must keep polling the boot-strap without crashing, and classify as a
  // non-normal session if it gives up.
  sim::Simulation simulation(7);
  Params params = fast_params();
  SystemConfig cfg;
  cfg.server_count = 0;
  logging::LogServer log;
  System sys(simulation, params, cfg, &log);
  sys.start();
  const net::NodeId id = sys.join(nat_viewer(3, simulation.rng()));
  simulation.run_until(sim::Time(60.0));
  const Peer* p = sys.peer(id);
  EXPECT_TRUE(p->alive());
  EXPECT_NE(p->phase(), PeerPhase::kPlaying);
  sys.leave(id, true);
  const auto sessions = logging::reconstruct_sessions(log.parse_all());
  ASSERT_EQ(sessions.sessions.size(), 1u);
  EXPECT_FALSE(sessions.sessions[0].is_normal());
}

TEST(AdaptationTest, CooldownLimitsAdaptationRate) {
  // A permanently under-provisioned parent violates the inequalities on
  // every check, but adaptations are confined to one per T_a.
  sim::Simulation simulation(9);
  Params params = fast_params();
  SystemConfig cfg;
  cfg.server_count = 1;
  cfg.server_capacity_bps = 0.6 * 768e3;
  cfg.server_max_partners = 4;
  System sys(simulation, params, cfg, nullptr);
  sys.start();
  simulation.run_until(sim::Time(30.0));
  const net::NodeId id = sys.join(nat_viewer(4, simulation.rng()));
  const sim::Time t0 = simulation.now();
  simulation.run_until(t0 + units::Duration(300.0));
  const Peer* p = sys.peer(id);
  const double elapsed = (simulation.now() - t0).value();
  EXPECT_GT(p->stats().adaptations, 0u);
  EXPECT_LE(p->stats().adaptations,
            static_cast<std::uint32_t>(elapsed / params.ta_seconds) + 2);
}

TEST(AdaptationTest, SwitchesToFresherParentViaInequality2) {
  // Viewer starts with only a slow server; a fast server comes within
  // reach later (via gossip/bootstrap refresh), and Ineq. (2) should pull
  // the viewer to it.
  sim::Simulation simulation(11);
  Params params = fast_params();
  SystemConfig cfg;
  cfg.server_count = 2;
  cfg.server_capacity_bps = 6e6;
  cfg.server_max_partners = 2;  // tight: viewer may only get one at first
  System sys(simulation, params, cfg, nullptr);
  sys.start();
  simulation.run_until(sim::Time(30.0));
  const net::NodeId id = sys.join(nat_viewer(5, simulation.rng()));
  simulation.run_until(sim::Time(300.0));
  const Peer* p = sys.peer(id);
  ASSERT_EQ(p->phase(), PeerPhase::kPlaying);
  // With ample server capacity the viewer must end up fully served and
  // fresh regardless of which server it found first.
  const SeqNum live = sys.source_head(SubstreamId(0), simulation.now());
  for (const SubstreamId j : substreams(params.substream_count)) {
    EXPECT_NE(p->parent_of(j), net::kInvalidNode);
    EXPECT_GT(p->head(j), live - params.tp_block_count());
  }
}

}  // namespace
}  // namespace coolstream::core
