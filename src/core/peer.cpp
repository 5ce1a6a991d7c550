#include "core/peer.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <limits>

#include "core/layout_audit.h"  // compiles the layout proofs into every build
#include "core/system.h"
#include "sim/stream_tags.h"

namespace coolstream::core {
namespace {

/// Partner-change entries retained per status-report interval (the paper's
/// compact partner report bounds log load).
constexpr std::size_t kMaxIntervalChanges = 64;

}  // namespace

Peer::Peer(System& system, net::NodeId id, PeerSpec spec,
           units::SessionId session_id, Tick now)
    : PeerProtocolState{},
      sys_(system),
      id_(id),
      rng_(system.rng().stream(sim::peer_stream_tag(id))),
      sync_(system.params().substream_count),
      mcache_(kMcacheSize, system.config().mcache_policy),
      partners_(system.params().substream_count),
      parents_(static_cast<std::size_t>(system.params().substream_count),
               net::kInvalidNode),
      sub_since_(static_cast<std::size_t>(system.params().substream_count),
                 Tick::zero()),
      credits_(static_cast<std::size_t>(system.params().substream_count),
               0.0) {
  // Identity fields live in the PeerProtocolState base (an aggregate, so
  // it cannot take them through the mem-initializer list).
  spec_ = spec;
  session_id_ = session_id;
  joined_at_ = now;

  // Stagger periodic timers with a random phase so thousands of peers do
  // not fire on the same tick edge.  Drawn from the peer's own stream:
  // stagger (like every later random choice) is a function of the node id
  // and the root seed only, never of join interleaving or shard layout.
  next_bm_push_ = now + Duration(rng_.uniform(0.0, kBmExchangePeriod));
  next_gossip_ = now + Duration(rng_.uniform(0.0, kGossipPeriod));
  next_adaptation_ = now + Duration(rng_.uniform(0.0, kAdaptationCheckPeriod));
  next_refill_ = now + Duration(rng_.uniform(0.0, kPartnerRefillPeriod));
  next_report_ = now + Duration(system.params().status_report_period);
}

units::BlockRate Peer::upload_block_rate() const noexcept {
  // Boundary conversion: bits/s over bits/block yields blocks/s.
  return units::BlockRate(
      spec_.upload_capacity.value() /
      sys_.params().block_size_bits());
}

bool Peer::records_partner_changes() const noexcept {
  // Partner changes only feed PartnerReports, which System::report drops
  // when no log server is attached.
  return sys_.log_server() != nullptr &&
         interval_changes_.size() < kMaxIntervalChanges;
}

bool Peer::partners_full() const noexcept {
  return partner_count() >=
         static_cast<std::size_t>(sys_.max_partners_of(*this));
}

// --------------------------------------------------------------------------
// Join process (§IV-A)
// --------------------------------------------------------------------------

void Peer::start_join() {
  if (spec_.kind == PeerKind::kServer) {
    // Servers are operational immediately; they are fed from the encoder.
    phase_ = PeerPhase::kPlaying;
    server_feed(sys_.now());
    return;
  }
  logging::ActivityReport r;
  r.header = {spec_.user_id, session_id_.value(),
              sys_.now().value()};
  r.activity = logging::Activity::kJoin;
  // Join-time activity report: once per session, off the per-tick path.
  r.address = spec_.address.to_string();
  sys_.report(id_, logging::Report(r));
  sys_.request_bootstrap_list(id_);
}

void Peer::on_bootstrap_list(std::span<const McacheEntry> list) {
  if (!alive()) return;
  for (const auto& e : list) {
    if (e.id != id_) mcache_.upsert(e, rng_);
  }
  try_establish_partnerships(kInitialPartnerTarget);
}

void Peer::try_establish_partnerships(std::size_t want) {
  if (want == 0) return;
  // Candidates must be reachable: the address in the mCache entry reveals
  // plain-NAT peers, so no attempt is wasted on them (they can only ever
  // partner with us by initiating themselves).  Sampled into the System's
  // shared scratch: attempt_partnership only queues a delayed event, so the
  // buffer is never used re-entrantly.
  std::vector<McacheEntry>& candidates = sys_.candidate_scratch(id_);
  candidates.clear();
  mcache_.sample_into(
      want, rng_,
      [this](const McacheEntry& cand) {
        return !cand.reachable || cand.id == id_ ||
               partners_.contains(cand.id) ||
               has_pending_attempt(cand.id) || !sys_.is_live(cand.id);
      },
      sys_.mcache_scratch(id_),
      [&candidates](const McacheEntry& e) { candidates.push_back(e); });
  for (const auto& cand : candidates) {
    pending_attempts_.push_back(PendingAttempt{sys_.now(), cand.id});
    ++stats_.partnership_attempts;
    sys_.attempt_partnership(id_, cand.id);
  }
}

bool Peer::has_pending_attempt(net::NodeId to) const noexcept {
  for (const PendingAttempt& a : pending_attempts_) {
    if (a.to == to) return true;
  }
  return false;
}

void Peer::clear_pending_attempt(net::NodeId to) {
  for (auto it = pending_attempts_.begin(); it != pending_attempts_.end();
       ++it) {
    if (it->to == to) {
      pending_attempts_.erase(it);
      return;
    }
  }
}

void Peer::on_partnership_established(net::NodeId pid, bool incoming) {
  if (!alive()) return;
  if (!incoming) clear_pending_attempt(pid);
  if (partners_.contains(pid)) return;  // already partners
  partners_.add(pid, incoming, sys_.now());
  had_incoming_ = had_incoming_ || incoming;
  had_outgoing_ = had_outgoing_ || !incoming;
  if (records_partner_changes()) {
    interval_changes_.push_back(
        logging::PartnerChange{pid, /*added=*/true, incoming});
  }
  // "The update of the mCache entries is achieved by randomly replacing
  // entries when new partnership is established" (§V-C).
  mcache_.upsert(McacheEntry{sys_.now(), pid, sys_.is_reachable(pid)}, rng_);
  // Give the new partner our buffer map right away so it can select
  // parents without waiting for the next periodic exchange.
  sys_.push_bm(id_, pid, sync_.heads());
}

void Peer::on_partnership_rejected(net::NodeId pid) {
  if (!alive()) return;
  clear_pending_attempt(pid);
  ++stats_.partnership_rejections;
  // A full or unreachable peer is not useful right now; forget it so the
  // next sample draws elsewhere.
  mcache_.remove(pid);
}

void Peer::on_partner_left(net::NodeId pid) {
  if (!alive()) return;
  const std::optional<PartnerView> ps = partners_.find(pid);
  if (!ps) return;
  const bool was_incoming = ps->incoming();
  partners_.erase(pid);
  if (records_partner_changes()) {
    interval_changes_.push_back(
        logging::PartnerChange{pid, /*added=*/false, was_incoming});
  }
  mcache_.remove(pid);
  // Stop serving any of its sub-stream subscriptions.
  std::erase_if(out_links_,
                [pid](const OutLink& l) { return l.child == pid; });
  // If it was a parent, reselect immediately: losing a parent must not wait
  // for the cool-down (the cool-down guards competition-driven churn).
  for (SubstreamId j : substreams(sys_.params().substream_count)) {
    if (parents_[j.index()] == pid) {
      end_subscription(j);
      parents_[j.index()] = net::kInvalidNode;
      if (start_decided_) reselect(j);
    }
  }
}

void Peer::on_bm_received(net::NodeId from, std::span<const SeqNum> lanes) {
  if (!alive()) return;
  if (!partners_.receive(from, lanes, sys_.now())) return;  // stale
  if (phase_ == PeerPhase::kJoining && !start_decided_ && !first_bm_at_) {
    first_bm_at_ = sys_.now();
  }
}

void Peer::on_gossip(std::span<const McacheEntry> entries) {
  if (!alive()) return;
  for (const auto& e : entries) {
    if (e.id != id_) mcache_.upsert(e, rng_);
  }
}

void Peer::on_subscribe(net::NodeId child, SubstreamId j) {
  if (!alive()) return;
  // "A parent node however will always accept requests and it will simply
  // push out all blocks of a sub-stream in need" (§IV-B): no admission
  // control — this is what makes peer competition possible.
  for (const auto& l : out_links_) {
    if (l.child == child && l.substream == j) return;  // already serving
  }
  out_links_.push_back(OutLink{child, j});
}

void Peer::on_unsubscribe(net::NodeId child, SubstreamId j) {
  std::erase_if(out_links_, [child, j](const OutLink& l) {
    return l.child == child && l.substream == j;
  });
}

void Peer::decide_start_offset() {
  const Params& p = sys_.params();
  // m = the largest sequence number available across partners (§IV-A).
  const SeqNum m = partners_.max_advertised();
  if (m == kNoSeq) return;  // no usable buffer map yet; keep waiting

  // "a node subscribes from a block that is shifted by a parameter T_p
  // from the latest block m."
  const SeqNum s0 = std::max(SeqNum(0), m - p.tp_block_count());
  for (SubstreamId j : substreams(p.substream_count)) {
    sync_.start_at(j, s0);
  }
  play_start_seq_ = global_of(SubstreamId(0), s0, p.substream_count);
  sync_.set_combined_floor(play_start_seq_ - BlockCount(1));
  last_deadline_counted_ = play_start_seq_ - BlockCount(1);
  start_decided_ = true;
  phase_ = PeerPhase::kBuffering;

  for (SubstreamId j : substreams(p.substream_count)) {
    const net::NodeId parent = select_parent(j, net::kInvalidNode);
    if (parent != net::kInvalidNode) subscribe_substream(j, parent);
  }
}

void Peer::end_subscription(SubstreamId j) {
  const net::NodeId parent = parents_[j.index()];
  if (parent == net::kInvalidNode) return;
  const Duration lifetime = sys_.now() - sub_since_[j.index()];
  // Reads only kind() and spec().type, both immutable after construction —
  // safe to resolve from any shard's worker.
  const Peer* p = sys_.peer(parent);  // lint:allow(cross-shard-call)
  const bool capable =
      p != nullptr && (p->kind() == PeerKind::kServer ||
                       net::accepts_inbound(p->spec().type));
  if (capable) {
    ++stats_.capable_subscriptions_ended;
    stats_.capable_subscription_time += lifetime;
  } else {
    ++stats_.weak_subscriptions_ended;
    stats_.weak_subscription_time += lifetime;
  }
}

void Peer::subscribe_substream(SubstreamId j, net::NodeId parent) {
  end_subscription(j);
  parents_[j.index()] = parent;
  sub_since_[j.index()] = sys_.now();
  credits_[j.index()] = 0.0;
  sys_.subscribe(id_, parent, j);
  if (!start_sub_emitted_) {
    start_sub_emitted_ = true;
    logging::ActivityReport r;
    r.header = {spec_.user_id,
                session_id_.value(),
                sys_.now().value()};
    r.activity = logging::Activity::kStartSubscription;
    sys_.report(id_, logging::Report(r));
    sys_.notify(id_, SessionEvent::kStartSubscription);
  }
}

net::NodeId Peer::select_parent(SubstreamId j, net::NodeId exclude) const {
  const Params& p = sys_.params();
  const BlockCount ts = p.ts_block_count();
  const BlockCount tp = p.tp_block_count();

  const SeqNum own_max = max_latest(sync_.heads());
  const SeqNum partner_max = partners_.max_advertised();

  // Qualified candidates satisfy both inequalities (§IV-B): adopting them
  // must neither leave sub-stream j more than T_s behind our freshest
  // sub-stream (1) nor hand us a parent more than T_p behind the best
  // partner (2) — and they must actually have blocks we still need.
  const SeqNum own_head = sync_.head(j);
  const auto offers = [&](const PartnerView& ps) {
    return ps.id() != exclude && ps.bm_time() && sys_.is_live(ps.id()) &&
           ps.latest(j) > own_head;  // else nothing new to offer
  };
  const auto qualified = [&](const PartnerView& ps) {
    const SeqNum latest = ps.latest(j);
    return own_max - latest < ts && partner_max - latest < tp;
  };
  // "Nodes could subscribe to sub-streams from different partners"
  // (§III-C): spread the load by restricting the random choice to the
  // qualified partners serving the fewest of our other sub-streams —
  // without this, every starving peer dumps all K sub-streams on its
  // single best partner and crushes it.
  const auto my_load = [this](net::NodeId cand) {
    int load = 0;
    for (net::NodeId parent : parents_) {
      if (parent == cand) ++load;
    }
    return load;
  };
  int min_load = std::numeric_limits<int>::max();
  std::size_t least_loaded = 0;  // qualified partners at min_load
  net::NodeId best_fallback = net::kInvalidNode;
  SeqNum best_latest = own_head;
  for (const PartnerView ps : partners_) {
    if (!offers(ps)) continue;
    if (qualified(ps)) {
      const int load = my_load(ps.id());
      if (load < min_load) {
        min_load = load;
        least_loaded = 0;
      }
      if (load == min_load) ++least_loaded;
    }
    const SeqNum latest = ps.latest(j);
    if (latest > best_latest) {
      best_latest = latest;
      best_fallback = ps.id();
    }
  }
  if (least_loaded > 0) {
    // "If there is more than one qualified partners, the peer will choose
    // one of them randomly."  Counted, then picked in partner order, so
    // the choice needs no candidate list.
    std::size_t pick = rng_.below(least_loaded);
    for (const PartnerView ps : partners_) {
      if (offers(ps) && qualified(ps) && my_load(ps.id()) == min_load &&
          pick-- == 0) {
        return ps.id();
      }
    }
  }
  // Temporary parent (§IV-B): the best available even if under-qualified;
  // it may be abandoned during the next adaptation.
  return best_fallback;
}

void Peer::reselect(SubstreamId j) {
  const net::NodeId old = parents_[j.index()];
  const net::NodeId next = select_parent(j, old);
  if (next == net::kInvalidNode) {
    // No alternative candidate.  Keep a live current parent (a temporary
    // parent still delivers *some* blocks, §IV-B); only clear the slot
    // when the parent is gone.
    if (old != net::kInvalidNode && !sys_.is_live(old)) {
      parents_[j.index()] = net::kInvalidNode;
    }
    return;
  }
  if (next == old) return;
  if (old != net::kInvalidNode && sys_.is_live(old)) {
    sys_.unsubscribe(id_, old, j);
  }
  ++stats_.parent_switches;
  subscribe_substream(j, next);
}

// --------------------------------------------------------------------------
// Adaptation (§IV-B)
// --------------------------------------------------------------------------

void Peer::run_adaptation(Tick now, bool cooldown_exempt) {
  if (!start_decided_) return;
  const Params& p = sys_.params();
  const BlockCount ts = p.ts_block_count();
  const BlockCount tp = p.tp_block_count();

  const std::span<const SeqNum> own = sync_.heads();
  const SeqNum own_max = max_latest(own);
  const SeqNum partner_max = partners_.max_advertised();

  // One scan over the K lanes, producing bit-words instead of a per-call
  // vector.  Inequality (1) is stated two ways in the paper: the prose
  // bounds the spread between any two sub-streams *within* the node by T_s,
  // while the printed formula bounds the deviation between the node's and
  // the *parent's* latest blocks.  Both signal insufficient parent upload —
  // the first catches one lagging sub-stream, the second catches uniform
  // starvation behind an overloaded parent — so either triggers.
  std::uint32_t orphaned = 0;  // lanes with no live partner parent
  std::uint32_t violated = 0;  // lanes tripping Ineq. (1) or (2)
  for (SubstreamId j : substreams(p.substream_count)) {
    const std::uint32_t bit = 1u << j.index();
    const net::NodeId parent = parents_[j.index()];
    const std::optional<PartnerView> ps =
        parent == net::kInvalidNode ? std::nullopt : partners_.find(parent);
    if (!ps || !sys_.is_live(parent)) {
      orphaned |= bit;  // orphaned sub-stream: exempt from cool-down
      continue;
    }
    const SeqNum own_latest = own[j.index()];
    bool trip = p.adaptation_ineq1 && own_max - own_latest >= ts;
    if (ps->bm_time()) {
      const SeqNum latest = ps->latest(j);
      trip = trip || (p.adaptation_ineq1 && latest - own_latest >= ts);
      // Inequality (2): the parent must not lag the best partner by T_p
      // or more (a better source is known).
      trip = trip || (p.adaptation_ineq2 && partner_max - latest >= tp);
    }
    if (trip) violated |= bit;
  }

  const bool gated_work =
      violated != 0 &&
      (cooldown_exempt || now - last_adaptation_ >= Duration(p.ta_seconds));
  const std::uint32_t to_fix = orphaned | (gated_work ? violated : 0u);
  if (to_fix == 0) return;
  for (SubstreamId j : substreams(p.substream_count)) {
    if ((to_fix >> j.index()) & 1u) reselect(j);
  }
  if (gated_work) {
    last_adaptation_ = now;
    ++stats_.adaptations;
  }
}

void Peer::drop_worst_partner() {
  // Keep current parents; drop the non-parent partner with the stalest /
  // lowest buffer map to make room for fresh candidates (§III-B: nodes
  // "drop some partners and re-establish partnership with other peers").
  net::NodeId worst = net::kInvalidNode;
  SeqNum worst_latest = kNoSeq;
  for (const PartnerView ps : partners_) {
    bool is_parent = false;
    for (net::NodeId parent : parents_) {
      if (parent == ps.id()) {
        is_parent = true;
        break;
      }
    }
    if (is_parent) continue;
    if (worst == net::kInvalidNode || ps.max_latest() < worst_latest) {
      worst = ps.id();
      worst_latest = ps.max_latest();
    }
  }
  if (worst != net::kInvalidNode) sys_.break_partnership(id_, worst);
}

void Peer::enforce_partner_silence(Tick now) {
  const double timeout = sys_.params().partner_silence_timeout;
  if (timeout <= 0.0) return;
  // Under message loss a dropped establishment confirm leaves this node
  // with a phantom partnership the other side never learned about; its BM
  // silence is the only observable symptom.  Collect first — breaks are
  // deferred to the tick flush, where they mutate partners_.
  std::vector<net::NodeId> stale;
  for (const PartnerView ps : partners_) {
    const Tick last_heard = ps.bm_time() ? *ps.bm_time() : ps.established();
    if (now - last_heard >= Duration(timeout)) stale.push_back(ps.id());
  }
  for (net::NodeId pid : stale) sys_.break_partnership(id_, pid);
}

// --------------------------------------------------------------------------
// Periodic driver
// --------------------------------------------------------------------------

void Peer::on_tick(Tick now) {
  if (!alive()) return;
  const Params& p = sys_.params();

  const bool server = spec_.kind == PeerKind::kServer;
  if (server) server_feed(now);

  if (now >= next_bm_push_) {
    enforce_partner_silence(now);
    sys_.broadcast_bm(id_, sync_.heads(), partners_);
    next_bm_push_ = now + Duration(kBmExchangePeriod);
  }
  if (server) return;

  if (now >= next_gossip_) {
    do_gossip();
    next_gossip_ = now + Duration(kGossipPeriod);
  }

  if (phase_ == PeerPhase::kJoining && !start_decided_ && first_bm_at_ &&
      now >= *first_bm_at_ + Duration(kJoinAggregationDelay)) {
    decide_start_offset();
  }
  if (phase_ == PeerPhase::kBuffering) check_media_ready(now);
  if (phase_ == PeerPhase::kPlaying) {
    do_playout(now);
    maybe_resync_forward(now);
  }

  if (now >= next_adaptation_) {
    run_adaptation(now, /*cooldown_exempt=*/false);
    next_adaptation_ = now + Duration(kAdaptationCheckPeriod);
  }

  if (now >= next_refill_) {
    // Baseline partner target; when the node is receiving insufficient
    // rate (it lags what its partners advertise by more than T_p), it
    // widens its partner set toward M — "the node has to drop some
    // partners and re-establish partnership with other peers" (§III-B).
    std::size_t target = kInitialPartnerTarget;
    bool lagging = false;
    if (start_decided_) {
      const SeqNum own_max = max_latest(sync_.heads());
      const SeqNum partner_max = partners_.max_advertised();
      lagging = partner_max - own_max >= p.tp_block_count();
      // The broadcast clock (block timestamps) also exposes staleness a
      // collectively-stale partner set cannot: explore when the freshest
      // sub-stream is far behind the live edge.
      const SeqNum live_edge = sys_.source_head(SubstreamId(0), now);
      lagging = lagging ||
                live_edge - own_max >=
                    BlockCount(static_cast<std::int64_t>(
                        kStaleThresholdSeconds * p.substream_block_rate()));
      if (lagging) {
        target = std::min<std::size_t>(
            static_cast<std::size_t>(sys_.max_partners_of(*this)),
            partner_count() + 2);
      }
    }
    bool starving = false;
    for (net::NodeId parent : parents_) {
      if (start_decided_ && parent == net::kInvalidNode) starving = true;
    }
    // An attempt whose confirm/reject the network lost has no response
    // coming once a full round trip (2 * max_delay) plus slack has passed;
    // age it out.  Clean runs never hit this: every response arrives
    // within the round trip.
    const Duration attempt_ttl = Duration(
        2.0 * sys_.transport().latency().params().max_delay + 1.0);
    std::erase_if(pending_attempts_, [now, attempt_ttl](const PendingAttempt& a) {
      return now - a.started >= attempt_ttl;
    });
    const std::size_t have = partner_count() + pending_attempts_.size();
    if (have < target) {
      bool any_candidate = false;
      for (const auto& e : mcache_.entries()) {
        if (e.reachable && e.id != id_ && !partners_.contains(e.id)) {
          any_candidate = true;
          break;
        }
      }
      if (any_candidate) {
        try_establish_partnerships(target - have);
      } else {
        sys_.request_bootstrap_list(id_);
      }
      if (lagging) {
        // A stale clique's gossip only circulates stale peers; the
        // boot-strap node samples the whole system and breaks the client
        // out of it.
        sys_.request_bootstrap_list(id_);
      }
    } else if ((starving || lagging) && partners_full()) {
      // Unsatisfied with a full partner list: rotate the weakest
      // non-parent partner out to make room for fresh candidates.
      drop_worst_partner();
    }
    next_refill_ = now + Duration(kPartnerRefillPeriod);
  }

  if (now >= next_report_) {
    send_status_reports(now);
    next_report_ = now + Duration(p.status_report_period);
  }
}

void Peer::do_gossip() {
  if (partners_.empty()) return;
  const auto pick = rng_.below(partners_.size());
  const net::NodeId target = partners_[pick].id();
  // At most 3 sampled entries + self, gathered on the stack; the System
  // copies them into one Message record, which waits in the shard outbox
  // until the serial flush.
  std::array<McacheEntry, 4> entries;
  std::size_t count = 0;
  mcache_.sample_into(
      3, rng_, [target](net::NodeId cand) { return cand == target; },
      sys_.mcache_scratch(id_),
      [&](const McacheEntry& e) { entries[count++] = e; });
  entries[count++] =
      McacheEntry{joined_at_, id_, net::accepts_inbound(spec_.type)};
  sys_.send_gossip(id_, target,
                   std::span<const McacheEntry>(entries.data(), count));
}

void Peer::check_media_ready(Tick now) {
  const Params& p = sys_.params();
  const BlockCount need = p.media_ready_block_count();
  if (sync_.combined() >= play_start_seq_ + need - BlockCount(1)) {
    phase_ = PeerPhase::kPlaying;
    play_start_time_ = now;
    logging::ActivityReport r;
    r.header = {spec_.user_id,
                session_id_.value(),
                now.value()};
    r.activity = logging::Activity::kMediaPlayerReady;
    sys_.report(id_, logging::Report(r));
    sys_.notify(id_, SessionEvent::kMediaReady);
  }
}

SeqNum Peer::deadline_floor(SubstreamId j) const noexcept {
  if (phase_ != PeerPhase::kPlaying) return kNoSeq;
  // Blocks whose deadline has been *counted* are dead.  Stay one round of
  // sub-streams behind the counted playhead so a block is never skipped
  // before its deadline was charged.
  const int k = sys_.params().substream_count;
  const GlobalSeq safe = last_deadline_counted_ - BlockCount(k);
  return last_seq_at_or_below(safe, j, k);
}

void Peer::handle_window_gap(SubstreamId j, SeqNum window_start) {
  const SeqNum from = sync_.head(j) + BlockCount(1);
  const SeqNum to = window_start - BlockCount(1);
  if (from > to) return;
  ++stats_.window_skips;
  sync_.start_at(j, window_start);

  const Params& p = sys_.params();
  const BlockCount resync_blocks = BlockCount(static_cast<std::int64_t>(
      kResyncSkipSeconds * p.substream_block_rate()));
  if (phase_ == PeerPhase::kPlaying &&
      to - from + BlockCount(1) >= resync_blocks) {
    // Deep skip: re-anchor the playout timeline at the new position (a
    // live client that fell too far behind re-enters near the edge; the
    // abandoned stretch is never charged to the continuity index, exactly
    // the paper's §V-D reporting blindness for re-entering users).
    ++stats_.resyncs;
    // start_at() moved lane j's head without extending the combined
    // prefix; bring it up to date.  The new timeline starts past it and
    // past lane j's last jumped-over block, which the prefix stops short
    // of when other lanes lag lane j: those blocks never arrive, and
    // skips_ is about to forget them.
    sync_.set_combined_floor(sync_.combined());
    play_start_seq_ =
        std::max(sync_.combined(), global_of(j, to, p.substream_count)) +
        BlockCount(1);
    play_start_time_ = sys_.now();
    last_deadline_counted_ = play_start_seq_ - BlockCount(1);
    stalled_on_ = kNoSeq;
    skips_.clear();
    return;
  }
  skips_.push_back(SkipRange{j, from, to});
}

void Peer::do_playout(Tick now) {
  const Params& p = sys_.params();
  const double spb = 1.0 / p.block_rate;  // seconds of video per block

  // Advance the playhead block by block.  When the next block is missing
  // at its deadline the player stalls: later deadlines shift by the stall
  // duration (play_start_time_ moves forward).  After kStallSkipAfter of
  // freezing, the block is skipped and charged as missed.
  for (;;) {
    const GlobalSeq g = last_deadline_counted_ + BlockCount(1);
    const Tick deadline =
        play_start_time_ +
        Duration(static_cast<double>(
                     (g - play_start_seq_ + BlockCount(1))
                         .value()) *
                 spb);
    if (deadline > now) break;

    const SubstreamId i = substream_of(g, p.substream_count);
    const SeqNum need = substream_seq_of(g, p.substream_count);
    bool present = sync_.head(i) >= need;
    if (present) {
      for (const auto& skip : skips_) {
        if (skip.substream == i && need >= skip.from && need <= skip.to) {
          present = false;
          break;
        }
      }
    }

    if (present) {
      if (stalled_on_ == g) {
        // The block arrived during the freeze.  Resume only after
        // rebuffering: enough contiguous video beyond the stalled block,
        // or the skip timeout expiring (whichever comes first), so the
        // player does not micro-stall on every delivery batch.
        const BlockCount rebuffer_blocks =
            BlockCount(static_cast<std::int64_t>(kStallRebufferSeconds *
                                                 p.block_rate));
        const bool rebuffered = sync_.combined() >= g + rebuffer_blocks;
        const Duration stalled_for = now - deadline;
        if (!rebuffered && stalled_for < Duration(kStallSkipAfter)) break;
        play_start_time_ += stalled_for;
        stats_.stall_seconds += stalled_for;
        stalled_on_ = kNoSeq;
      }
      ++stats_.blocks_due;
      ++interval_due_;
      ++stats_.blocks_on_time;
      ++interval_on_time_;
      last_deadline_counted_ = g;
      continue;
    }

    const Duration overdue = now - deadline;
    if (overdue < Duration(kStallSkipAfter)) {
      // Keep the player frozen, waiting for block g.
      if (stalled_on_ != g) {
        stalled_on_ = g;
        ++stats_.stalls;
      }
      break;
    }
    // Gave up on block g: skip it, shift later deadlines by the stall.
    play_start_time_ += Duration(kStallSkipAfter);
    stats_.stall_seconds += Duration(kStallSkipAfter);
    stalled_on_ = kNoSeq;
    ++stats_.blocks_due;
    ++interval_due_;
    last_deadline_counted_ = g;
  }

  // Prune skip ranges entirely behind the playhead.
  if (!skips_.empty() && last_deadline_counted_ > kNoSeq) {
    const SeqNum oldest_need =
        substream_seq_of(last_deadline_counted_, p.substream_count);
    std::erase_if(skips_, [oldest_need](const SkipRange& s) {
      return s.to < oldest_need - BlockCount(1);
    });
  }
}

void Peer::send_status_reports(Tick now) {
  const logging::ReportHeader header{
      spec_.user_id,
      session_id_.value(),
      now.value()};

  logging::QosReport qos;
  qos.header = header;
  qos.blocks_due = interval_due_;
  qos.blocks_on_time = interval_on_time_;
  sys_.report(id_, logging::Report(qos));
  interval_due_ = 0;
  interval_on_time_ = 0;

  logging::TrafficReport traffic;
  traffic.header = header;
  traffic.bytes_down = interval_bytes_down_.value();
  traffic.bytes_up = interval_bytes_up_.value();
  sys_.report(id_, logging::Report(traffic));
  interval_bytes_down_ = units::Bytes::zero();
  interval_bytes_up_ = units::Bytes::zero();

  logging::PartnerReport partner;
  partner.header = header;
  partner.partner_count = static_cast<std::uint32_t>(partner_count());
  partner.changes = std::move(interval_changes_);
  sys_.report(id_, logging::Report(partner));
  interval_changes_.clear();
}

void Peer::maybe_resync_forward(Tick now) {
  const Params& p = sys_.params();
  if (now - last_resync_ < Duration(kResyncCooldownSeconds)) return;
  const GlobalSeq live =
      global_of(SubstreamId(0), sys_.source_head(SubstreamId(0), now),
                p.substream_count);
  const Duration lag = Duration(
      static_cast<double>(
          (live - last_deadline_counted_).value()) /
      p.block_rate);
  if (lag <= Duration(kMaxPlaybackLagSeconds)) return;

  // Re-anchor at the freshest partner, T_p behind its latest block — the
  // same rule as the initial join (§IV-A).
  const SeqNum m = partners_.max_advertised();
  const SeqNum s0 = m - p.tp_block_count();
  // Only jump if it actually moves us forward meaningfully.
  const GlobalSeq target = global_of(SubstreamId(0), s0, p.substream_count);
  if (target <= last_deadline_counted_ +
                    BlockCount(static_cast<std::int64_t>(p.block_rate))) {
    return;  // nothing fresher in reach; keep exploring partners
  }
  last_resync_ = now;
  ++stats_.resyncs;
  for (SubstreamId j : substreams(p.substream_count)) {
    sync_.start_at(j, s0);
  }
  sync_.set_combined_floor(target - BlockCount(1));
  play_start_seq_ = target;
  play_start_time_ = now;
  last_deadline_counted_ = target - BlockCount(1);
  stalled_on_ = kNoSeq;
  skips_.clear();
  // Subscriptions continue from the new positions; parents whose buffers
  // no longer cover them will window-clamp forward naturally.
}

void Peer::server_feed(Tick now) {
  const Tick feed_time = now - Duration(kServerLag);
  if (feed_time <= Tick::zero()) return;
  for (SubstreamId j : substreams(sys_.params().substream_count)) {
    const SeqNum target = sys_.source_head(j, feed_time);
    if (target > sync_.head(j)) sync_.start_at(j, target + BlockCount(1));
  }
}

void Peer::set_left() {
  for (SubstreamId j : substreams(sys_.params().substream_count)) {
    end_subscription(j);
  }
  phase_ = PeerPhase::kLeft;
  std::fill(parents_.begin(), parents_.end(), net::kInvalidNode);
  // A departed peer is never revived (ids are not recycled) yet the System
  // keeps it, so free its session containers: memory must follow the live
  // population.  Stats and the sync-buffer heads stay for the figures.
  partners_.release();
  std::vector<OutLink>().swap(out_links_);
  std::vector<PendingAttempt>().swap(pending_attempts_);
  std::vector<SkipRange>().swap(skips_);
  std::vector<logging::PartnerChange>().swap(interval_changes_);
  mcache_.release();
}

}  // namespace coolstream::core
