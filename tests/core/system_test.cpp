// Integration tests of the protocol stack: peers + servers + flow model +
// logging, driven through core::System.
#include "core/system.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/invariants.h"
#include "logging/sessions.h"
#include "net/address.h"

namespace coolstream::core {
namespace {

Params fast_params() {
  Params p;
  // Status reports every 30 s so short tests still produce QoS data.
  p.status_report_period = 30.0;
  return p;
}

SystemConfig small_config(int servers = 2) {
  SystemConfig c;
  c.server_count = servers;
  c.server_capacity_bps = 20e6;
  c.server_max_partners = 20;
  return c;
}

PeerSpec viewer(std::uint64_t user, net::ConnectionType type,
                double upload_bps, sim::Rng& rng) {
  PeerSpec s;
  s.user_id = user;
  s.kind = PeerKind::kViewer;
  s.type = type;
  s.address = net::uses_private_address(type)
                  ? net::random_private_address(rng)
                  : net::random_public_address(rng);
  s.upload_capacity = units::BitRate(upload_bps);
  return s;
}

TEST(SystemTest, ServersComeUpAndFollowTheSource) {
  sim::Simulation simulation(1);
  System sys(simulation, fast_params(), small_config(3), nullptr);
  sys.start();
  simulation.run_until(sim::Time(30.0));
  for (net::NodeId id = 0; id < 3; ++id) {
    const Peer* server = sys.peer(id);
    ASSERT_NE(server, nullptr);
    EXPECT_EQ(server->kind(), PeerKind::kServer);
    EXPECT_TRUE(server->alive());
    for (const SubstreamId j : substreams(sys.params().substream_count)) {
      // ~30 s * 2 blocks/s minus the server lag.
      EXPECT_NEAR(static_cast<double>(server->head(j).value()), 59.0, 3.0);
    }
  }
}

TEST(SystemTest, SourceHeadMatchesBlockClock) {
  sim::Simulation simulation(1);
  System sys(simulation, fast_params(), small_config(), nullptr);
  // At t: floor(t * 8) global blocks exist, split round-robin over 4.
  EXPECT_EQ(sys.source_head(SubstreamId(0), Tick(0.0)), kNoSeq);
  // One block would need t >= 1/8.
  EXPECT_EQ(sys.source_head(SubstreamId(0), Tick(0.124)), kNoSeq);
  EXPECT_EQ(sys.source_head(SubstreamId(0), Tick(0.125)), SeqNum(0));
  EXPECT_EQ(sys.source_head(SubstreamId(1), Tick(0.125)), kNoSeq);
  // Globals 0,4 on sub-stream 0; globals 3,7 on sub-stream 3.
  EXPECT_EQ(sys.source_head(SubstreamId(0), Tick(1.0)), SeqNum(1));
  EXPECT_EQ(sys.source_head(SubstreamId(3), Tick(1.0)), SeqNum(1));
  EXPECT_EQ(sys.source_head(SubstreamId(3), Tick(0.99)), SeqNum(0));
  EXPECT_EQ(sys.source_head(SubstreamId(0), Tick(10.0)), SeqNum(19));
}

TEST(SystemTest, SingleViewerReachesPlayback) {
  sim::Simulation simulation(7);
  logging::LogServer log;
  System sys(simulation, fast_params(), small_config(), &log);
  std::vector<SessionEvent> events;
  sys.observer = [&](net::NodeId, SessionEvent e) { events.push_back(e); };
  sys.start();
  simulation.run_until(sim::Time(10.0));

  const net::NodeId id = sys.join(
      viewer(1, net::ConnectionType::kDirect, 2e6, simulation.rng()));
  simulation.run_until(sim::Time(120.0));

  const Peer* p = sys.peer(id);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->phase(), PeerPhase::kPlaying);
  ASSERT_GE(events.size(), 3u);
  EXPECT_EQ(events[0], SessionEvent::kJoined);
  EXPECT_EQ(events[1], SessionEvent::kStartSubscription);
  EXPECT_EQ(events[2], SessionEvent::kMediaReady);

  // Once playing, a lone well-provisioned viewer misses nothing.
  EXPECT_GT(p->stats().blocks_due, 100u);
  EXPECT_EQ(p->stats().blocks_due, p->stats().blocks_on_time);
  // It subscribed every sub-stream.
  for (const SubstreamId j : substreams(sys.params().substream_count)) {
    EXPECT_NE(p->parent_of(j), net::kInvalidNode);
  }
}

TEST(SystemTest, JoinEmitsActivityReportsInOrder) {
  sim::Simulation simulation(11);
  logging::LogServer log;
  System sys(simulation, fast_params(), small_config(), &log);
  sys.start();
  simulation.run_until(sim::Time(5.0));
  sys.join(viewer(42, net::ConnectionType::kNat, 500e3, simulation.rng()));
  simulation.run_until(sim::Time(100.0));

  const auto reports = log.parse_all();
  const auto sessions = logging::reconstruct_sessions(reports);
  ASSERT_EQ(sessions.sessions.size(), 1u);
  const auto& s = sessions.sessions[0];
  EXPECT_EQ(s.user_id, 42u);
  ASSERT_TRUE(s.join_time.has_value());
  ASSERT_TRUE(s.start_subscription_time_abs.has_value());
  ASSERT_TRUE(s.media_ready_time_abs.has_value());
  EXPECT_LE(*s.join_time, *s.start_subscription_time_abs);
  EXPECT_LE(*s.start_subscription_time_abs, *s.media_ready_time_abs);
  EXPECT_TRUE(s.private_address);
  // The §IV-A rule: ready within tens of seconds, not minutes.
  EXPECT_LT(*s.media_ready_delay(), 40.0);
}

TEST(SystemTest, GracefulLeaveReportsAndCleansUp) {
  sim::Simulation simulation(13);
  logging::LogServer log;
  System sys(simulation, fast_params(), small_config(), &log);
  sys.start();
  simulation.run_until(sim::Time(5.0));
  const net::NodeId id = sys.join(
      viewer(2, net::ConnectionType::kDirect, 2e6, simulation.rng()));
  simulation.run_until(sim::Time(60.0));
  ASSERT_TRUE(sys.is_live(id));
  EXPECT_EQ(sys.live_viewer_count(), 1u);

  sys.leave(id, /*graceful=*/true);
  EXPECT_FALSE(sys.is_live(id));
  EXPECT_EQ(sys.live_viewer_count(), 0u);
  EXPECT_EQ(sys.live_peer(id), nullptr);
  EXPECT_EQ(sys.peer(id)->phase(), PeerPhase::kLeft);

  const auto sessions = logging::reconstruct_sessions(log.parse_all());
  ASSERT_EQ(sessions.sessions.size(), 1u);
  EXPECT_TRUE(sessions.sessions[0].is_normal());
  EXPECT_TRUE(sessions.sessions[0].had_outgoing);
}

TEST(SystemTest, BootstrapReplyListsLivePeersWithTheirJoinTimes) {
  // The boot-strap node answers from the System's live list: a reply names
  // only live nodes, never the requester, and stamps each with its own join
  // time.  Four viewers join at distinct times and one of them leaves, so
  // the departed id and the join times are both told apart.
  sim::Simulation simulation(19);
  System sys(simulation, fast_params(), small_config(), nullptr);
  sys.start();
  std::vector<net::NodeId> viewers;
  for (int i = 0; i < 4; ++i) {
    simulation.run_until(sim::Time(5.0 * (i + 1)));
    viewers.push_back(sys.join(viewer(static_cast<std::uint64_t>(10 + i),
                                      net::ConnectionType::kDirect, 1e6,
                                      simulation.rng())));
  }
  simulation.run_until(sim::Time(40.0));
  sys.leave(viewers[1], /*graceful=*/true);
  simulation.run_until(sim::Time(50.0));

  const net::NodeId requester = sys.join(
      viewer(20, net::ConnectionType::kNat, 1e6, simulation.rng()));
  const Peer* p = sys.peer(requester);
  // The reply is the first thing to land in a joiner's mCache: gossip and
  // partnership updates need a partnership, which needs the reply first.
  while (p->mcache().size() == 0 && simulation.now() < sim::Time(55.0)) {
    simulation.run_until(simulation.now() + units::Duration(0.001));
  }
  // 2 servers + 3 viewers besides the requester: fewer than the list size,
  // so the reply names every one of them.
  ASSERT_LT(sys.live_nodes().size() - 1, kBootstrapListSize);
  ASSERT_EQ(p->mcache().size(), sys.live_nodes().size() - 1);
  for (const McacheEntry& e : p->mcache().entries()) {
    EXPECT_NE(e.id, requester);
    EXPECT_NE(e.id, viewers[1]);
    ASSERT_NE(sys.live_peer(e.id), nullptr) << e.id;
    EXPECT_EQ(e.first_seen, sys.peer(e.id)->joined_at()) << e.id;
  }
}

TEST(SystemTest, CrashLeavesSessionOpenInLog) {
  sim::Simulation simulation(17);
  logging::LogServer log;
  System sys(simulation, fast_params(), small_config(), &log);
  sys.start();
  simulation.run_until(sim::Time(5.0));
  const net::NodeId id = sys.join(
      viewer(3, net::ConnectionType::kUpnp, 1e6, simulation.rng()));
  simulation.run_until(sim::Time(60.0));
  sys.leave(id, /*graceful=*/false);

  const auto sessions = logging::reconstruct_sessions(log.parse_all());
  ASSERT_EQ(sessions.sessions.size(), 1u);
  EXPECT_FALSE(sessions.sessions[0].leave_time.has_value());
  EXPECT_FALSE(sessions.sessions[0].is_normal());
}

TEST(SystemTest, DepartedPeerFreesSessionStateAndKeepsStats) {
  // Ids are never recycled, so every peer that ever joined stays in the
  // System: a departed one must give back its session containers (both
  // on a graceful leave and on a crash) while its stats and buffer heads
  // stay readable and frozen for the figures.
  sim::Simulation simulation(23);
  System sys(simulation, fast_params(), small_config(), nullptr);
  sys.start();
  simulation.run_until(sim::Time(5.0));
  std::vector<net::NodeId> ids;
  for (int i = 0; i < 8; ++i) {
    ids.push_back(sys.join(viewer(static_cast<std::uint64_t>(300 + i),
                                  net::ConnectionType::kDirect, 2e6,
                                  simulation.rng())));
  }
  simulation.run_until(sim::Time(120.0));

  for (const bool graceful : {true, false}) {
    const net::NodeId id = graceful ? ids[0] : ids[1];
    const Peer* p = sys.peer(id);
    ASSERT_TRUE(p->alive());
    ASSERT_GT(p->partner_count(), 0u);
    ASSERT_GT(InvariantTestAccess::session_capacity(*p), 0u);

    sys.leave(id, graceful);
    EXPECT_EQ(InvariantTestAccess::session_capacity(*p), 0u)
        << (graceful ? "graceful leave" : "crash");
    const PeerStats left = p->stats();
    const SeqNum head = p->head(SubstreamId(0));
    EXPECT_GT(left.blocks_due, 0u);
    EXPECT_GT(left.bytes_down, units::Bytes{});
    EXPECT_GT(left.partnership_attempts, 0u);

    // Messages still in flight to the departed peer must not regrow
    // anything, and its record stays as it was at departure.
    simulation.run_until(simulation.now() + units::Duration(30.0));
    EXPECT_EQ(InvariantTestAccess::session_capacity(*p), 0u);
    EXPECT_EQ(p->stats().blocks_due, left.blocks_due);
    EXPECT_EQ(p->stats().blocks_on_time, left.blocks_on_time);
    EXPECT_EQ(p->stats().bytes_down, left.bytes_down);
    EXPECT_EQ(p->stats().bytes_up, left.bytes_up);
    EXPECT_EQ(p->stats().parent_switches, left.parent_switches);
    EXPECT_EQ(p->head(SubstreamId(0)), head);
  }
}

TEST(SystemTest, NatViewersNeverAcceptInbound) {
  sim::Simulation simulation(19);
  System sys(simulation, fast_params(), small_config(), nullptr);
  sys.start();
  simulation.run_until(sim::Time(5.0));
  std::vector<net::NodeId> nat_ids;
  sim::Rng& rng = simulation.rng();
  for (int i = 0; i < 6; ++i) {
    nat_ids.push_back(
        sys.join(viewer(static_cast<std::uint64_t>(100 + i), net::ConnectionType::kNat, 400e3, rng)));
  }
  for (int i = 0; i < 6; ++i) {
    sys.join(viewer(static_cast<std::uint64_t>(200 + i), net::ConnectionType::kDirect, 3e6, rng));
  }
  simulation.run_until(sim::Time(180.0));
  for (net::NodeId id : nat_ids) {
    const Peer* p = sys.peer(id);
    if (!p->alive()) continue;
    EXPECT_FALSE(p->had_incoming()) << "NAT peer " << id;
    for (const PartnerView ps : p->partners()) {
      EXPECT_FALSE(ps.incoming());
    }
  }
}

TEST(SystemTest, PartnerChangesAreKeptOnlyForALogServer) {
  // Partner changes only feed partner reports, which reach no one without
  // a log server: then no peer keeps a change history, however much its
  // partner list churns.  With a log server the same run keeps one.
  for (const bool with_log : {false, true}) {
    SCOPED_TRACE(with_log ? "log server" : "no log server");
    sim::Simulation simulation(29);
    logging::LogServer log;
    System sys(simulation, fast_params(), small_config(),
               with_log ? &log : nullptr);
    sys.start();
    std::vector<net::NodeId> ids;
    std::size_t max_capacity = 0;
    for (int round = 0; round < 6; ++round) {
      for (int i = 0; i < 4; ++i) {
        ids.push_back(sys.join(
            viewer(static_cast<std::uint64_t>(400 + ids.size()),
                   net::ConnectionType::kDirect, 2e6, simulation.rng())));
      }
      simulation.run_until(simulation.now() + units::Duration(10.0));
      sys.leave(ids[static_cast<std::size_t>(2 * round)], /*graceful=*/true);
      sys.leave(ids[static_cast<std::size_t>(2 * round + 1)],
                /*graceful=*/false);
      for (const net::NodeId id : sys.live_nodes()) {
        max_capacity = std::max(
            max_capacity,
            InvariantTestAccess::partner_change_capacity(*sys.peer(id)));
      }
    }
    ASSERT_GT(sys.stats().partnership_accepts, 0u);
    ASSERT_EQ(sys.stats().leaves, 12u);
    if (with_log) {
      EXPECT_GT(max_capacity, 0u);
    } else {
      EXPECT_EQ(max_capacity, 0u);
    }
  }
}

TEST(SystemTest, ParentDepartureTriggersReselection) {
  // Seed chosen so the topology below reliably forms viewer-viewer parent
  // links within the warm-up window (the precondition this test needs).
  sim::Simulation simulation(24);
  System sys(simulation, fast_params(), small_config(1), nullptr);
  sys.start();
  simulation.run_until(sim::Time(5.0));
  sim::Rng& rng = simulation.rng();
  // A capable relay and several children that will mostly hang off it
  // (the single server has few partner slots).
  std::vector<net::NodeId> ids;
  for (int i = 0; i < 10; ++i) {
    ids.push_back(sys.join(viewer(
        static_cast<std::uint64_t>(300 + i),
        i == 0 ? net::ConnectionType::kDirect : net::ConnectionType::kNat,
        i == 0 ? 8e6 : 400e3, rng)));
  }
  simulation.run_until(sim::Time(120.0));

  // Find a viewer whose parent is another viewer, then kill that parent.
  net::NodeId child = net::kInvalidNode;
  net::NodeId parent = net::kInvalidNode;
  for (net::NodeId id : ids) {
    const Peer* p = sys.peer(id);
    if (!p->alive()) continue;
    for (const SubstreamId j : substreams(sys.params().substream_count)) {
      const net::NodeId par = p->parent_of(j);
      if (par != net::kInvalidNode && sys.peer(par) != nullptr &&
          sys.peer(par)->kind() == PeerKind::kViewer) {
        child = id;
        parent = par;
        break;
      }
    }
    if (child != net::kInvalidNode) break;
  }
  ASSERT_NE(child, net::kInvalidNode) << "no viewer-viewer link formed";
  sys.leave(parent, /*graceful=*/true);

  // The child must not keep the dead parent.
  for (const SubstreamId j : substreams(sys.params().substream_count)) {
    EXPECT_NE(sys.peer(child)->parent_of(j), parent);
  }
  // And it keeps streaming: give it a minute and check it is not starving.
  simulation.run_until(simulation.now() + units::Duration(60.0));
  const Peer* c = sys.peer(child);
  if (c->alive() && c->phase() == PeerPhase::kPlaying) {
    const auto& st = c->stats();
    EXPECT_GT(st.blocks_on_time, 0u);
  }
}

TEST(SystemTest, UnnotifiedParentDepartureClearsTheSlot) {
  // A parent that no longer lists its child (a one-sided partnership)
  // leaves without notifying it, so the child still holds the dead parent
  // as a partner.  With no other partner to offer the sub-streams, its next
  // adaptation has nothing to switch to and clears each parent slot.
  sim::Simulation simulation(11);
  SystemConfig cfg = small_config(1);
  cfg.server_max_partners = 1;  // the relay takes the server's one slot
  System sys(simulation, fast_params(), cfg, nullptr);
  sys.start();
  sim::Rng& rng = simulation.rng();
  simulation.run_until(sim::Time(5.0));
  const net::NodeId relay =
      sys.join(viewer(400, net::ConnectionType::kDirect, 8e6, rng));
  simulation.run_until(sim::Time(10.0));
  const net::NodeId child =
      sys.join(viewer(401, net::ConnectionType::kNat, 400e3, rng));
  // Ticks fall on multiples of flow_tick (0.5 s); stop between two.
  simulation.run_until(sim::Time(120.2));
  Peer& c = *sys.peer(child);
  ASSERT_EQ(c.phase(), PeerPhase::kPlaying);
  ASSERT_EQ(c.partner_count(), 1u) << "the relay must be the only partner";
  const int k = sys.params().substream_count;
  for (const SubstreamId j : substreams(k)) ASSERT_EQ(c.parent_of(j), relay);

  InvariantTestAccess::partners(*sys.peer(relay)).erase(child);
  sys.leave(relay, /*graceful=*/true);
  ASSERT_TRUE(c.partners().contains(relay)) << "the child was notified";
  // Adapt on the next tick, before a BM push finds the relay dead and
  // drops it as a partner (which would clear the slots instead).
  const Tick now = sys.now();
  InvariantTestAccess::next_adaptation(c) = now;
  InvariantTestAccess::next_bm_push(c) = now + units::Duration(60.0);
  simulation.run_until(sim::Time(120.7));  // exactly one tick, at 120.5 s

  EXPECT_TRUE(c.partners().contains(relay));
  for (const SubstreamId j : substreams(k)) {
    EXPECT_EQ(c.parent_of(j), net::kInvalidNode) << "sub-stream " << j.value();
  }
}

TEST(SystemTest, SnapshotIsConsistent) {
  sim::Simulation simulation(29);
  System sys(simulation, fast_params(), small_config(), nullptr);
  sys.start();
  simulation.run_until(sim::Time(5.0));
  sim::Rng& rng = simulation.rng();
  for (int i = 0; i < 12; ++i) {
    sys.join(viewer(static_cast<std::uint64_t>(400 + i), net::ConnectionType::kDirect, 2e6, rng));
  }
  simulation.run_until(sim::Time(120.0));

  const auto snap = sys.snapshot();
  EXPECT_EQ(snap.peer_count(), sys.live_viewer_count());
  for (const auto& node : snap.nodes) {
    EXPECT_TRUE(sys.is_live(node.id));
    for (net::NodeId parent : node.parents) {
      if (parent != net::kInvalidNode) {
        EXPECT_TRUE(sys.is_live(parent)) << "dangling parent " << parent;
      }
    }
    if (!node.is_server) {
      EXPECT_GE(node.depth, 1);  // viewers hang below servers
    }
  }
}

TEST(SystemTest, DeterministicGivenSeed) {
  auto run = [](std::uint64_t seed) {
    sim::Simulation simulation(seed);
    logging::LogServer log;
    System sys(simulation, fast_params(), small_config(), &log);
    sys.start();
    simulation.run_until(sim::Time(5.0));
    sim::Rng& rng = simulation.rng();
    for (int i = 0; i < 8; ++i) {
      const auto type = i % 2 == 0 ? net::ConnectionType::kDirect
                                   : net::ConnectionType::kNat;
      sys.join(viewer(static_cast<std::uint64_t>(500 + i), type,
                      i % 2 == 0 ? 3e6 : 400e3, rng));
    }
    simulation.run_until(sim::Time(300.0));
    return std::make_tuple(log.lines(), sys.stats().blocks_transferred,
                           sys.transport().total_sent());
  };
  const auto a = run(99);
  const auto b = run(99);
  EXPECT_EQ(std::get<0>(a), std::get<0>(b));
  EXPECT_EQ(std::get<1>(a), std::get<1>(b));
  EXPECT_EQ(std::get<2>(a), std::get<2>(b));
  // A different seed shifts timer phases and latencies, so the report
  // timestamps (and hence the raw log) must differ.
  const auto c = run(100);
  EXPECT_NE(std::get<0>(a), std::get<0>(c));
}

TEST(SystemTest, PeerCompetitionTriggersAdaptation) {
  // One server with little spare capacity plus weak peers: children must
  // compete, violate Inequality (1) and adapt (§IV-B).
  sim::Simulation simulation(31);
  SystemConfig cfg = small_config(1);
  cfg.server_capacity_bps = 2.5 * 768e3;  // ~2.5 full streams
  cfg.server_max_partners = 30;
  System sys(simulation, fast_params(), cfg, nullptr);
  sys.start();
  simulation.run_until(sim::Time(5.0));
  sim::Rng& rng = simulation.rng();
  for (int i = 0; i < 12; ++i) {
    sys.join(viewer(600 + static_cast<std::uint64_t>(i),
                    net::ConnectionType::kNat, 200e3, rng));
  }
  simulation.run_until(sim::Time(400.0));

  std::uint32_t adaptations = 0;
  std::uint64_t due = 0;
  double stall_seconds = 0.0;
  std::uint32_t resyncs = 0;
  for (net::NodeId id = 1; id < 13; ++id) {
    const Peer* p = sys.peer(id);
    if (p == nullptr || p->kind() != PeerKind::kViewer) continue;
    adaptations += p->stats().adaptations;
    due += p->stats().blocks_due;
    stall_seconds += p->stats().stall_seconds.value();
    resyncs += p->stats().resyncs;
  }
  EXPECT_GT(adaptations, 0u);
  EXPECT_GT(due, 0u);
  // Overloaded system: the shortfall surfaces as player stalls and/or
  // forward resyncs (abandoned stretches are not charged as misses —
  // the §V-D reporting blindness).
  EXPECT_TRUE(stall_seconds > 10.0 || resyncs > 0u)
      << "stall=" << stall_seconds << " resyncs=" << resyncs;
}

TEST(SystemTest, StatusReportsArrivePeriodically) {
  sim::Simulation simulation(37);
  logging::LogServer log;
  Params p = fast_params();
  p.status_report_period = 20.0;
  System sys(simulation, p, small_config(), &log);
  sys.start();
  simulation.run_until(sim::Time(2.0));
  sys.join(viewer(7, net::ConnectionType::kDirect, 2e6, simulation.rng()));
  simulation.run_until(sim::Time(130.0));

  int qos = 0;
  int traffic = 0;
  int partner = 0;
  for (const auto& r : log.parse_all()) {
    if (std::holds_alternative<logging::QosReport>(r)) ++qos;
    if (std::holds_alternative<logging::TrafficReport>(r)) ++traffic;
    if (std::holds_alternative<logging::PartnerReport>(r)) ++partner;
  }
  // ~128 s of life with a 20 s period: 6 report rounds.
  EXPECT_GE(qos, 5);
  EXPECT_LE(qos, 7);
  EXPECT_EQ(qos, traffic);
  EXPECT_EQ(qos, partner);
}

TEST(SystemTest, UploadBytesFlowToTheLog) {
  sim::Simulation simulation(41);
  logging::LogServer log;
  Params p = fast_params();
  p.status_report_period = 20.0;
  SystemConfig cfg = small_config(1);
  cfg.server_max_partners = 2;  // force the NAT peers onto the relay
  System sys(simulation, p, cfg, &log);
  sys.start();
  simulation.run_until(sim::Time(2.0));
  sim::Rng& rng = simulation.rng();
  // A capable relay plus NAT peers: the relay should upload.
  sys.join(viewer(1, net::ConnectionType::kDirect, 8e6, rng));
  for (int i = 0; i < 6; ++i) {
    sys.join(viewer(10 + static_cast<std::uint64_t>(i),
                    net::ConnectionType::kNat, 300e3, rng));
  }
  simulation.run_until(sim::Time(300.0));

  const auto sessions = logging::reconstruct_sessions(log.parse_all());
  std::uint64_t total_up = 0;
  std::uint64_t total_down = 0;
  for (const auto& s : sessions.sessions) {
    total_up += s.bytes_up;
    total_down += s.bytes_down;
  }
  EXPECT_GT(total_down, 0u);
  EXPECT_GT(total_up, 0u);  // viewers serve each other, not only servers
}

/// What one periodic BM broadcast left behind (see the test below).
struct BroadcastOutcome {
  std::vector<SeqNum> partner_view_lanes;  ///< the lanes the partner received
  bool sender_kept_crashed = true;
  bool sender_kept_silent = true;
  bool silent_kept_sender = true;
};

/// Makes `a` list `b` as a partner whose `lanes` were last heard at
/// `heard`.
void add_partner(Peer& a, net::NodeId b, Tick heard,
                 std::span<const SeqNum> lanes) {
  PartnerTable& partners = InvariantTestAccess::partners(a);
  if (!partners.contains(b)) partners.add(b, false, heard);
  partners.receive(b, lanes, heard);
}

/// One sender's broadcast, in a single tick, covers three partners: a
/// live partner (it must receive the lanes), a crashed partner that never
/// told the sender (the delivery must make the sender drop it), and a
/// partner the sender silence-breaks earlier in the same tick (the
/// delivery must be dropped as stale).
BroadcastOutcome run_broadcast_case(int shards) {
  sim::Simulation simulation(31);
  Params params = fast_params();
  params.partner_silence_timeout = 10.0;
  SystemConfig cfg = small_config();
  cfg.shards = shards;
  System sys(simulation, params, cfg, nullptr);
  sys.start();
  sim::Rng& rng = simulation.rng();
  std::vector<net::NodeId> ids;
  for (int i = 0; i < 4; ++i) {
    ids.push_back(sys.join(viewer(500 + static_cast<std::uint64_t>(i),
                                  net::ConnectionType::kDirect, 2e6, rng)));
  }
  // Ticks fall on multiples of flow_tick (0.5 s); stop between two.
  simulation.run_until(sim::Time(30.2));
  const net::NodeId sender_id = ids[0];
  const net::NodeId partner_id = ids[1];
  const net::NodeId crashed_id = ids[2];
  const net::NodeId silent_id = ids[3];
  Peer& sender = *sys.peer(sender_id);
  Peer& partner = *sys.peer(partner_id);
  Peer& crashed = *sys.peer(crashed_id);
  Peer& silent = *sys.peer(silent_id);
  const Tick now = sys.now();
  const Tick long_ago = now - units::Duration(2 * params.partner_silence_timeout);

  add_partner(sender, partner_id, now, partner.sync().heads());
  add_partner(partner, sender_id, now, sender.sync().heads());
  add_partner(sender, crashed_id, now, crashed.sync().heads());
  add_partner(sender, silent_id, long_ago, silent.sync().heads());
  add_partner(silent, sender_id, now, sender.sync().heads());
  // Crash without telling the sender: the partnership is half-open.
  InvariantTestAccess::partners(crashed).erase(sender_id);
  sys.leave(crashed_id, /*graceful=*/false);
  EXPECT_TRUE(sender.partners().contains(crashed_id));
  InvariantTestAccess::next_bm_push(sender) = now;

  simulation.run_until(sim::Time(30.7));  // exactly one tick, at 30.5 s

  BroadcastOutcome out;
  const std::optional<PartnerView> view = partner.partners().find(sender_id);
  EXPECT_TRUE(view.has_value());
  if (view) {
    EXPECT_TRUE(view->bm_time() && *view->bm_time() > now);
    for (const SubstreamId j : substreams(params.substream_count)) {
      out.partner_view_lanes.push_back(view->latest(j));
    }
  }
  out.sender_kept_crashed = sender.partners().contains(crashed_id);
  out.sender_kept_silent = sender.partners().contains(silent_id);
  out.silent_kept_sender = silent.partners().contains(sender_id);
  return out;
}

TEST(SystemTest, BmBroadcastFlushesPerPartnerAtAnyShardCount) {
  BroadcastOutcome by_shards[2];
  const int shard_counts[2] = {1, 4};
  for (int k = 0; k < 2; ++k) {
    SCOPED_TRACE(::testing::Message() << "shards=" << shard_counts[k]);
    by_shards[k] = run_broadcast_case(shard_counts[k]);
    EXPECT_FALSE(by_shards[k].sender_kept_crashed);
    EXPECT_FALSE(by_shards[k].sender_kept_silent);
    EXPECT_FALSE(by_shards[k].silent_kept_sender);
  }
  EXPECT_EQ(by_shards[0].partner_view_lanes, by_shards[1].partner_view_lanes);
}

TEST(SystemTest, MalformedShardCountsAreRejected) {
  // CI runs this suite with COOLSTREAM_SHARDS set; put it back afterwards.
  struct RestoreEnv {
    std::optional<std::string> saved;
    ~RestoreEnv() {
      if (saved) {
        setenv("COOLSTREAM_SHARDS", saved->c_str(), 1);
      } else {
        unsetenv("COOLSTREAM_SHARDS");
      }
    }
  } restore;
  if (const char* env = std::getenv("COOLSTREAM_SHARDS")) restore.saved = env;

  sim::Simulation simulation(3);
  const auto shards_of = [&simulation](SystemConfig cfg) {
    return System(simulation, fast_params(), cfg, nullptr).shard_count();
  };
  const auto expect_rejected = [&shards_of](SystemConfig cfg,
                                            const std::string& needle) {
    try {
      shards_of(cfg);
      ADD_FAILURE() << "accepted " << needle;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
    }
  };

  for (const char* bad : {"four", "0", "4x", "65", "-2", " 4", "+4"}) {
    setenv("COOLSTREAM_SHARDS", bad, 1);
    expect_rejected(small_config(),
                    std::string("COOLSTREAM_SHARDS must be an integer in "
                                "[1, 64], got \"") +
                        bad + '"');
  }
  setenv("COOLSTREAM_SHARDS", "64", 1);
  EXPECT_EQ(shards_of(small_config()), 64);
  setenv("COOLSTREAM_SHARDS", "", 1);
  EXPECT_EQ(shards_of(small_config()), 1);
  unsetenv("COOLSTREAM_SHARDS");
  EXPECT_EQ(shards_of(small_config()), 1);

  // The config field is range-checked too, not clamped.
  SystemConfig cfg = small_config();
  cfg.shards = 65;
  expect_rejected(cfg, "shards must be in [0, 64], got 65");
  cfg.shards = -1;
  expect_rejected(cfg, "shards must be in [0, 64], got -1");
  cfg.shards = 3;
  setenv("COOLSTREAM_SHARDS", "four", 1);  // a fixed count ignores the env
  EXPECT_EQ(shards_of(cfg), 3);
}

}  // namespace
}  // namespace coolstream::core
