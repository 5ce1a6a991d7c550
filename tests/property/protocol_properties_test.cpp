// The five protocol invariants checked under randomized fault schedules,
// plus the planted-bug meta test proving the harness catches a protocol
// regression (Ineq. 1/2 adaptation disabled).
#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "core/invariants.h"
#include "core/peer.h"
#include "core/system.h"
#include "property.h"

namespace coolstream {
namespace {

using proptest::CaseRun;
using proptest::GeneratedCase;

std::string node_str(net::NodeId id) { return std::to_string(id); }

/// Applies `f(id, peer)` to every live viewer, in deterministic order.
template <typename F>
void for_each_viewer(core::System& sys, F&& f) {
  for (net::NodeId id : sys.live_nodes()) {
    const core::Peer* p = sys.peer(id);
    if (p == nullptr || !p->alive() ||
        p->kind() != core::PeerKind::kViewer) {
      continue;
    }
    f(id, *p);
  }
}

// --------------------------------------------------------------------------
// P1: no peer plays a block it never received, and the byte ledger agrees
// with the block ledger at every sample point.
// --------------------------------------------------------------------------

PROPERTY_TEST(ProtocolProperties, PlayedImpliesReceived) {
  CaseRun run(pcase);
  core::System& sys = run.system();
  const std::uint64_t block_bytes = sys.params().block_bytes().value();
  std::unordered_map<net::NodeId, core::GlobalSeq> last_playhead;
  std::optional<std::string> err;
  for (double t = 1.0; t <= run.end() && !err; t += 1.0) {
    run.run_to(t);
    const double produced =
        sys.now().value() * sys.params().block_rate;
    for_each_viewer(sys, [&](net::NodeId id, const core::Peer& p) {
      if (err) return;
      const core::PeerStats& st = p.stats();
      if (st.blocks_on_time > st.blocks_due) {
        err = "node " + node_str(id) +
              " counted more on-time blocks than deadlines passed";
        return;
      }
      // Every received block enters through the data plane, which pays for
      // it in bytes; exact equality means nothing was played out of thin
      // air and nothing was double-counted.
      if (st.bytes_down.value() !=
          p.sync().blocks_received() * block_bytes) {
        err = "node " + node_str(id) +
              " download bytes disagree with received blocks";
        return;
      }
      const core::GlobalSeq ph = p.playhead();
      if (ph == core::kNoSeq) return;
      if (ph.value() >
          static_cast<std::int64_t>(produced) +
              sys.params().substream_count) {
        err = "node " + node_str(id) +
              " playhead ran past the encoder position";
        return;
      }
      auto [it, inserted] = last_playhead.emplace(id, ph);
      if (!inserted) {
        if (ph < it->second) {
          err = "node " + node_str(id) + " playhead moved backwards";
          return;
        }
        it->second = ph;
      }
    });
  }
  return err;
}

// --------------------------------------------------------------------------
// P2: buffer maps stay consistent with buffer contents — stored partner
// BMs never run ahead of the partner's real state (the heads are the
// advertised BM, by construction), and heads are monotonic.
// --------------------------------------------------------------------------

PROPERTY_TEST(ProtocolProperties, BufferMapsMatchBuffers) {
  CaseRun run(pcase);
  core::System& sys = run.system();
  const int k = sys.params().substream_count;
  std::unordered_map<net::NodeId, std::vector<core::SeqNum>> last_heads;
  std::optional<std::string> err;
  for (double t = 1.0; t <= run.end() && !err; t += 1.0) {
    run.run_to(t);
    for_each_viewer(sys, [&](net::NodeId id, const core::Peer& p) {
      if (err) return;
      auto& heads = last_heads[id];
      if (heads.empty()) heads.assign(static_cast<std::size_t>(k),
                                      core::kNoSeq);
      for (core::SubstreamId j : core::substreams(k)) {
        const core::SeqNum head = p.head(j);
        const core::SeqNum prev = heads[j.index()];
        if (prev != core::kNoSeq && (head == core::kNoSeq || head < prev)) {
          err = "node " + node_str(id) + " sub-stream head moved backwards";
          return;
        }
        heads[j.index()] = head;
      }
      for (const core::PartnerView ps : p.partners()) {
        if (!ps.bm_time()) continue;
        const core::Peer* q = sys.peer(ps.id());
        if (q == nullptr || !q->alive()) continue;
        for (core::SubstreamId j : core::substreams(k)) {
          if (ps.latest(j) != core::kNoSeq && ps.latest(j) > q->head(j)) {
            err = "node " + node_str(id) + " stores a BM for partner " +
                  node_str(ps.id()) + " that is ahead of the partner's head";
            return;
          }
        }
      }
    });
  }
  return err;
}

// --------------------------------------------------------------------------
// P3: partnerships are symmetric after quiesce.  One-sided states are
// legal transients while repair messages are in flight or lazy cleanup is
// pending (a partner that died mid-round-trip is noticed at the next BM
// push), so a suspect must persist across an extra repair window to count.
// --------------------------------------------------------------------------

PROPERTY_TEST(ProtocolProperties, PartnershipsSymmetricAfterQuiesce) {
  CaseRun run(pcase);
  run.run_to(run.end());
  core::System& sys = run.system();

  struct Suspect {
    net::NodeId node;
    net::NodeId partner;
  };
  auto scan = [&sys](std::vector<Suspect>* out) {
    const units::Tick now = sys.now();
    const units::Duration grace(5.0);  // establishment round trip in flight
    for (net::NodeId id : sys.live_nodes()) {
      const core::Peer* p = sys.peer(id);
      if (p == nullptr || !p->alive()) continue;
      for (const core::PartnerView ps : p->partners()) {
        if (now - ps.established() <= grace) continue;
        const core::Peer* q = sys.peer(ps.id());
        if (q == nullptr || !q->alive() || !q->partners().contains(id)) {
          out->push_back({id, ps.id()});
        }
      }
      if (p->kind() != core::PeerKind::kViewer) continue;
      for (core::SubstreamId j :
           core::substreams(sys.params().substream_count)) {
        const net::NodeId parent = p->parent_of(j);
        if (parent != net::kInvalidNode &&
            !p->partners().contains(parent)) {
          out->push_back({id, parent});
        }
      }
    }
  };

  std::vector<Suspect> first;
  scan(&first);
  if (first.empty()) return std::nullopt;
  run.run_to(run.end() + 4.0);
  std::vector<Suspect> second;
  scan(&second);
  for (const Suspect& a : first) {
    for (const Suspect& b : second) {
      if (a.node == b.node && a.partner == b.partner) {
        return "node " + node_str(a.node) +
               " still holds a one-sided partnership or parent link to "
               "node " +
               node_str(a.partner) + " after quiesce plus a repair window";
      }
    }
  }
  return std::nullopt;
}

// --------------------------------------------------------------------------
// P4: when Ineq. (1) or (2) is violated persistently (with margin, so
// float/rounding edges cannot flap), the peer must respond — an adaptation
// or a playout resync — within the modeled bound T_a + 2 check periods +
// slack.  The detector mirrors the spec, not the implementation knobs, so
// disabling the implementation's checks makes this property fail (see the
// planted-bug meta test below).
// --------------------------------------------------------------------------

std::optional<std::string> adaptation_liveness(const GeneratedCase& c,
                                               const CaseRun::Tweak& tweak) {
  CaseRun run(c, tweak);
  core::System& sys = run.system();
  const core::Params& params = sys.params();
  const int k = params.substream_count;
  const core::BlockCount ts(params.ts_block_count().value() + 4);
  const core::BlockCount tp(params.tp_block_count().value() + 4);
  const double bound =
      params.ta_seconds + 2.0 * core::kAdaptationCheckPeriod + 4.0;

  struct Streak {
    double since;
    std::uint64_t response;  // adaptations + resyncs at streak start
  };
  std::unordered_map<net::NodeId, Streak> streaks;
  std::optional<std::string> err;
  for (double t = 1.0; t <= run.end() && !err; t += 1.0) {
    run.run_to(t);
    for_each_viewer(sys, [&](net::NodeId id, const core::Peer& p) {
      if (err) return;
      bool violated = false;
      if (p.phase() != core::PeerPhase::kJoining) {
        core::SeqNum own_max = core::kNoSeq;
        for (core::SubstreamId j : core::substreams(k)) {
          own_max = std::max(own_max, p.head(j));
        }
        core::SeqNum partner_max = core::kNoSeq;
        for (const core::PartnerView ps : p.partners()) {
          if (ps.bm_time()) {
            partner_max = std::max(partner_max, ps.max_latest());
          }
        }
        for (core::SubstreamId j : core::substreams(k)) {
          const net::NodeId parent = p.parent_of(j);
          // Orphaned sub-streams are repaired cool-down-exempt on the next
          // check; they are not this property's concern.
          if (parent == net::kInvalidNode || !sys.is_live(parent)) continue;
          const std::optional<core::PartnerView> ps =
              p.partners().find(parent);
          if (!ps) continue;
          const bool ineq1_spread = own_max - p.head(j) >= ts;
          const bool ineq1_parent_lag =
              ps->bm_time() && ps->latest(j) - p.head(j) >= ts;
          const bool ineq2 =
              ps->bm_time() && partner_max - ps->latest(j) >= tp;
          if (ineq1_spread || ineq1_parent_lag || ineq2) {
            violated = true;
            break;
          }
        }
      }
      const std::uint64_t response = p.stats().adaptations + p.stats().resyncs;
      auto it = streaks.find(id);
      if (!violated) {
        if (it != streaks.end()) streaks.erase(it);
        return;
      }
      if (it == streaks.end()) {
        streaks.emplace(id, Streak{t, response});
        return;
      }
      if (response != it->second.response) {
        it->second = Streak{t, response};  // the protocol responded
        return;
      }
      if (t - it->second.since > bound) {
        err = "node " + node_str(id) +
              " violated Ineq. 1/2 (with margin) for over " +
              std::to_string(bound) + " s without adaptation or resync";
      }
    });
    for (auto it = streaks.begin(); it != streaks.end();) {
      if (!sys.is_live(it->first)) {
        it = streaks.erase(it);
      } else {
        ++it;
      }
    }
  }
  return err;
}

PROPERTY_TEST(ProtocolProperties, AdaptationFiresWithinBound) {
  return adaptation_liveness(pcase, {});
}

// --------------------------------------------------------------------------
// P5: the InvariantAuditor stays clean across the run.  Symmetry and
// dead-parent transients are P3's job (they are legal while lazy cleanup
// is pending); every other rule — buffer-map agreement, monotonicity,
// block conservation, census, event-queue and teardown consistency — must
// hold at every audit, fault windows active or not.
// --------------------------------------------------------------------------

PROPERTY_TEST(ProtocolProperties, InvariantAuditorStaysClean) {
  CaseRun run(pcase);
  core::InvariantAuditor auditor(run.system());
  // Census overshoot (partner count past M + slack) is a legal transient:
  // under a flash crowd, several outgoing partnership confirms can land
  // while the peer is already at capacity, and the next refill round trims
  // the excess.  It must clear within three consecutive audits (> RTT plus
  // one trim round); everything else is zero-tolerance.
  std::unordered_map<net::NodeId, int> census_streak;
  std::optional<std::string> err;
  for (double t = 2.0; t <= run.end() + 4.0 && !err; t += 2.0) {
    run.run_to(t);
    std::unordered_map<net::NodeId, int> census_now;
    for (const core::InvariantViolation& v : auditor.audit()) {
      if (v.rule == core::InvariantRule::kPartnerSymmetry) continue;
      if (v.rule == core::InvariantRule::kSingleParent &&
          (v.detail.find("dead parent") != std::string::npos ||
           v.detail.find("not a partner") != std::string::npos)) {
        continue;
      }
      if (v.rule == core::InvariantRule::kCensus) {
        const int streak = census_streak[v.node] + 1;
        census_now[v.node] = streak;
        if (streak >= 3) {
          err = "audit violation persisted for " + std::to_string(streak) +
                " consecutive audits, ending t=" + std::to_string(t) +
                ": " + core::to_string(v);
        }
        continue;
      }
      err = "audit violation at t=" + std::to_string(t) + ": " +
            core::to_string(v);
      break;
    }
    census_streak = std::move(census_now);
  }
  return err;
}

// --------------------------------------------------------------------------
// Meta test: a deliberately planted protocol bug must be caught.  Both
// servers' uplinks are degraded to 5% mid-run; children fall behind while
// the servers' buffer maps keep advancing, so Ineq. (1) fires persistently.
// With the implementation's Ineq. 1/2 checks disabled (the planted bug),
// the adaptation-liveness property must fail; with the checks intact the
// same schedule must pass.
// --------------------------------------------------------------------------

GeneratedCase planted_starvation_case() {
  GeneratedCase c;
  c.case_seed = 0xC001D00DULL;
  c.viewers = 12;
  c.horizon = 110.0;
  for (sim::FaultNode server : {sim::FaultNode{0}, sim::FaultNode{1}}) {
    sim::CapacityFault f;
    f.window = sim::FaultWindow{units::Tick(30.0), units::Tick(110.0)};
    f.node = server;
    f.factor = 0.05;
    c.schedule.faults.capacities.push_back(f);
  }
  return c;
}

TEST(ProtocolProperties, PlantedAdaptationBugIsCaught) {
  const GeneratedCase planted = planted_starvation_case();

  const auto broken =
      adaptation_liveness(planted, [](workload::Scenario& s) {
        s.params.adaptation_ineq1 = false;
        s.params.adaptation_ineq2 = false;
      });
  EXPECT_TRUE(broken.has_value())
      << "the adaptation-liveness property failed to catch a protocol with "
         "Ineq. 1/2 checks removed";

  const auto intact = adaptation_liveness(planted, {});
  EXPECT_FALSE(intact.has_value()) << *intact;
}

// --------------------------------------------------------------------------
// Harness self-checks: generation is a pure function of the seed, and the
// printed reproduction text round-trips.
// --------------------------------------------------------------------------

TEST(PropertyHarness, GenerationIsDeterministic) {
  const GeneratedCase a = proptest::generate_case(0x123456789abcdef0ULL);
  const GeneratedCase b = proptest::generate_case(0x123456789abcdef0ULL);
  EXPECT_EQ(a.viewers, b.viewers);
  EXPECT_EQ(a.horizon, b.horizon);
  EXPECT_EQ(a.schedule, b.schedule);
}

TEST(PropertyHarness, CaseTextRoundTrips) {
  for (std::uint64_t seed : {0xfeedULL, 0xdeadbeefULL, 42ULL}) {
    const GeneratedCase c = proptest::generate_case(seed);
    const auto parsed = proptest::parse_case_text(proptest::case_text(c));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->case_seed, c.case_seed);
    EXPECT_EQ(parsed->viewers, c.viewers);
    EXPECT_DOUBLE_EQ(parsed->horizon, c.horizon);
    EXPECT_EQ(parsed->schedule, c.schedule);
  }
}

}  // namespace
}  // namespace coolstream

