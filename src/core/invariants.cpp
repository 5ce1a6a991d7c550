#include "core/invariants.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <utility>

#include "core/peer.h"
#include "core/system.h"

namespace coolstream::core {

const char* to_string(InvariantRule rule) noexcept {
  switch (rule) {
    case InvariantRule::kPartnerSymmetry: return "partner-symmetry";
    case InvariantRule::kSingleParent: return "single-parent";
    case InvariantRule::kBufferMapAgreement: return "buffer-map-agreement";
    case InvariantRule::kSyncMonotonic: return "sync-monotonic";
    case InvariantRule::kBlockConservation: return "block-conservation";
    case InvariantRule::kCensus: return "census";
    case InvariantRule::kEventQueue: return "event-queue";
    case InvariantRule::kTeardown: return "teardown";
  }
  return "unknown";
}

std::string to_string(const InvariantViolation& v) {
  std::ostringstream os;
  os << to_string(v.rule);
  if (v.node != net::kInvalidNode) os << " node=" << v.node;
  if (v.other != net::kInvalidNode) os << " other=" << v.other;
  os << ": " << v.detail;
  return os.str();
}

namespace {

/// Partnerships younger than this may legitimately be one-sided (the
/// acceptance round trip is still in flight).
constexpr Duration kSymmetryGrace = Duration(5.0);

}  // namespace

InvariantAuditor::InvariantAuditor(System& system) : sys_(system) {}

InvariantAuditor::~InvariantAuditor() { stop(); }

void InvariantAuditor::start(Duration period) {
  stop();
  handle_ = sys_.simulation().every(period, period, [this] {
    const std::vector<InvariantViolation> found = audit();
    if (found.empty()) return;
    if (on_violations) {
      on_violations(found);
      return;
    }
    for (const auto& v : found) {
      std::fprintf(stderr, "invariant violation @t=%.3f: %s\n",
                   sys_.now().value(),
                   to_string(v).c_str());
    }
    std::abort();
  });
}

void InvariantAuditor::stop() { handle_.cancel(); }

void InvariantAuditor::check_peer(const Peer& p,
                                  std::vector<InvariantViolation>* out) {
  const net::NodeId id = p.id();
  const Params& params = sys_.params();
  const int k = params.substream_count;
  const Tick now = sys_.now();
  auto add = [out, id](InvariantRule rule, net::NodeId other,
                       std::string detail) {
    out->push_back({rule, id, other, std::move(detail)});
  };

  if (!p.alive()) {
    // A departed peer must be fully dismantled: no partner or serving state
    // left behind, and off the live list the boot-strap node samples.
    if (!p.partners().empty()) {
      add(InvariantRule::kTeardown, net::kInvalidNode,
          "departed peer still holds partner state");
    }
    if (!p.out_links().empty()) {
      add(InvariantRule::kTeardown, net::kInvalidNode,
          "departed peer still holds serving links");
    }
    if (sys_.is_live(id)) {
      add(InvariantRule::kTeardown, net::kInvalidNode,
          "departed peer still on the live list");
    }
    return;
  }

  if (!sys_.is_live(id)) {
    add(InvariantRule::kCensus, net::kInvalidNode,
        "live peer missing from the live list");
  }
  if (p.partner_count() >
      static_cast<std::size_t>(sys_.max_partners_of(p)) + 2) {
    add(InvariantRule::kCensus, net::kInvalidNode,
        "partner count exceeds the M cap (plus in-flight slack)");
  }

  // --- partnership symmetry (§III-B) --------------------------------------
  for (const PartnerView ps : p.partners()) {
    const Peer* q = sys_.live_peer(ps.id());
    if (q == nullptr) {
      add(InvariantRule::kPartnerSymmetry, ps.id(),
          "partner is dead or unknown");
      continue;
    }
    if (!q->partners().contains(id) &&
        now - ps.established() > kSymmetryGrace) {
      add(InvariantRule::kPartnerSymmetry, ps.id(),
          "partner does not list us back (beyond the in-flight grace)");
    }
  }

  // --- single parent per sub-stream (§III-C) ------------------------------
  for (SubstreamId j : substreams(k)) {
    const net::NodeId parent = p.parent_of(j);
    if (parent == net::kInvalidNode) continue;
    // Diagnostic strings carry the raw sub-stream number.
    const std::string js =
        std::to_string(j.value());
    const Peer* q = sys_.live_peer(parent);
    if (q == nullptr) {
      add(InvariantRule::kSingleParent, parent,
          "subscribed to a dead parent (sub-stream " + js + ")");
      continue;
    }
    if (!p.partners().contains(parent)) {
      add(InvariantRule::kSingleParent, parent,
          "parent is not a partner (sub-stream " + js + ")");
    }
    int serving = 0;
    for (const OutLink& l : q->out_links()) {
      if (l.child == id && l.substream == j) ++serving;
    }
    if (serving == 0) {
      add(InvariantRule::kSingleParent, parent,
          "parent has no serving link for sub-stream " + js);
    } else if (serving > 1) {
      add(InvariantRule::kSingleParent, parent,
          "parent serves sub-stream " + js + " " + std::to_string(serving) +
              " times");
    }
  }
  // No duplicated (child, sub-stream) pair among our own serving links.
  std::vector<std::pair<net::NodeId, SubstreamId>> links;
  links.reserve(p.out_links().size());
  for (const OutLink& l : p.out_links()) links.emplace_back(l.child, l.substream);
  std::sort(links.begin(), links.end());
  if (std::adjacent_find(links.begin(), links.end()) != links.end()) {
    add(InvariantRule::kSingleParent, net::kInvalidNode,
        "duplicate serving link in out_links");
  }

  // --- buffer-map agreement (§III-C) --------------------------------------
  // Partners read this node's maps from its one advertisement.  Heads are
  // monotone, so a snapshot of them lies in [-1, head]: anything else is a
  // stale or forged advertisement (and a head beyond the encoder is
  // reported on its own).
  const Advertisement& ad = sys_.advertisements()[id];
  for (SubstreamId j : substreams(k)) {
    const SeqNum lat = ad.lanes[j.index()];
    if (ad.time && (lat < kNoSeq || lat > p.head(j))) {
      add(InvariantRule::kBufferMapAgreement, net::kInvalidNode,
          "advertised buffer map outside [-1, its owner's head]");
    }
    if (p.head(j) > sys_.source_head(j, now) + BlockCount(1)) {
      add(InvariantRule::kBufferMapAgreement, net::kInvalidNode,
          "sync-buffer head beyond the encoder position");
    }
  }
  if (p.phase() == PeerPhase::kPlaying &&
      p.playhead() >
          global_of(SubstreamId(0), sys_.source_head(SubstreamId(0), now),
                    k) +
              BlockCount(k)) {
    add(InvariantRule::kBufferMapAgreement, net::kInvalidNode,
        "playhead beyond the live edge");
  }

  // --- synchronization-buffer monotonicity --------------------------------
  const GlobalSeq combined = p.sync().combined();
  for (SubstreamId j : substreams(k)) {
    // The largest global block g <= combined with g mod k == j must be
    // covered by sub-stream j's contiguous head for the combined prefix to
    // be honest; last_seq_at_or_below is exactly that block's sub-stream
    // sequence number (kNoSeq when no such block exists yet).
    if (p.head(j) < last_seq_at_or_below(combined, j, k)) {
      add(InvariantRule::kSyncMonotonic, net::kInvalidNode,
          "combined prefix ahead of sub-stream " +
              std::to_string(j.value()) +
              "'s contiguous head");
    }
  }
  if (id < snap_.size() && snap_[id].heads.size() == static_cast<std::size_t>(k)) {
    const NodeSnapshot& old = snap_[id];
    for (SubstreamId j : substreams(k)) {
      if (p.head(j) < old.heads[j.index()]) {
        add(InvariantRule::kSyncMonotonic, net::kInvalidNode,
            "sub-stream " +
                std::to_string(j.value()) +
                " head moved backwards");
      }
    }
    if (combined < old.combined) {
      add(InvariantRule::kSyncMonotonic, net::kInvalidNode,
          "combined prefix moved backwards");
    }
    if (p.stats().bytes_up < old.bytes_up ||
        p.stats().bytes_down < old.bytes_down) {
      add(InvariantRule::kSyncMonotonic, net::kInvalidNode,
          "lifetime byte counter moved backwards");
    }
  }

  // --- local accounting ----------------------------------------------------
  if (p.stats().blocks_on_time > p.stats().blocks_due) {
    add(InvariantRule::kBlockConservation, net::kInvalidNode,
        "more blocks on time than deadlines counted");
  }
}

void InvariantAuditor::check_global(std::vector<InvariantViolation>* out,
                                    std::size_t live_seen) {
  auto add = [out](InvariantRule rule, std::string detail) {
    out->push_back({rule, net::kInvalidNode, net::kInvalidNode,
                    std::move(detail)});
  };

  // --- block conservation (lifetime, dead peers included) ------------------
  units::Bytes up{};
  units::Bytes down{};
  for (net::NodeId id = 0;; ++id) {
    const Peer* p = sys_.peer(id);
    if (p == nullptr) break;
    up += p->stats().bytes_up;
    down += p->stats().bytes_down;
  }
  const units::Bytes expect =
      sys_.params().block_bytes() * sys_.stats().blocks_transferred;
  if (up != down) {
    add(InvariantRule::kBlockConservation,
        "uploaded bytes (" +
            std::to_string(up.value()) +
            ") != downloaded bytes (" +
            std::to_string(down.value()) +
            ")");
  }
  if (up != expect) {
    add(InvariantRule::kBlockConservation,
        "transferred bytes (" +
            std::to_string(up.value()) +
            ") disagree with the block counter (" +
            std::to_string(expect.value()) +
            ")");
  }

  // --- census ---------------------------------------------------------------
  const auto servers = static_cast<std::size_t>(sys_.config().server_count);
  if (live_seen != sys_.live_viewer_count() + servers) {
    add(InvariantRule::kCensus,
        "live census " + std::to_string(live_seen) + " != viewers " +
            std::to_string(sys_.live_viewer_count()) + " + servers " +
            std::to_string(servers));
  }

  // --- event engine ---------------------------------------------------------
  const std::string queue_err = sys_.simulation().queue().self_check();
  if (!queue_err.empty()) {
    add(InvariantRule::kEventQueue, "event queue: " + queue_err);
  }
}

std::vector<InvariantViolation> InvariantAuditor::audit() {
  std::vector<InvariantViolation> out;
  std::size_t live_seen = 0;
  net::NodeId end = 0;
  for (net::NodeId id = 0;; ++id) {
    const Peer* p = sys_.peer(id);
    if (p == nullptr) {
      end = id;
      break;
    }
    if (p->alive()) ++live_seen;
    check_peer(*p, &out);
  }
  check_global(&out, live_seen);

  // Refresh the monotonicity snapshot only after all checks ran.
  const int k = sys_.params().substream_count;
  snap_.resize(end);
  for (net::NodeId id = 0; id < end; ++id) {
    const Peer* p = sys_.peer(id);
    NodeSnapshot& s = snap_[id];
    s.heads.assign(static_cast<std::size_t>(k), kNoSeq);
    for (SubstreamId j : substreams(k)) {
      s.heads[j.index()] = p->head(j);
    }
    s.combined = p->sync().combined();
    s.bytes_up = p->stats().bytes_up;
    s.bytes_down = p->stats().bytes_down;
  }

  ++audits_;
  violations_ += out.size();
  return out;
}

// --------------------------------------------------------------------------
// Test access
// --------------------------------------------------------------------------

PartnerTable& InvariantTestAccess::partners(Peer& p) {
  return p.partners_;
}

void InvariantTestAccess::rewind_head(Peer& p, SubstreamId j, SeqNum seq) {
  p.sync_.heads_[j.index()] = seq;
}

SystemStats& InvariantTestAccess::stats(System& sys) { return sys.stats_; }

void InvariantTestAccess::relist(System& sys, net::NodeId id) {
  sys.live_index_[id] = static_cast<std::uint32_t>(sys.live_.size());
  sys.live_.push_back(id);
}

void InvariantTestAccess::do_gossip(Peer& p) { p.do_gossip(); }

Mcache& InvariantTestAccess::mcache(Peer& p) { return p.mcache_; }

Tick& InvariantTestAccess::next_bm_push(Peer& p) { return p.next_bm_push_; }

void InvariantTestAccess::mark_mutual(System& sys, net::NodeId a,
                                      net::NodeId b) {
  if (Peer* pa = sys.live_peer(a)) sys.mark_mutual(*pa, b);
}

Tick& InvariantTestAccess::next_adaptation(Peer& p) {
  return p.next_adaptation_;
}

std::size_t InvariantTestAccess::session_capacity(const Peer& p) {
  return p.partners_.capacity() + p.out_links_.capacity() +
         p.pending_attempts_.capacity() + p.skips_.capacity() +
         p.interval_changes_.capacity() + p.mcache_.capacity();
}

std::size_t InvariantTestAccess::partner_change_capacity(const Peer& p) {
  return p.interval_changes_.capacity();
}

std::size_t InvariantTestAccess::skip_count(const Peer& p) {
  return p.skips_.size();
}

Tick InvariantTestAccess::last_resync(const Peer& p) { return p.last_resync_; }

}  // namespace coolstream::core
