#include "core/system.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <new>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "core/invariants.h"
#include "net/bandwidth.h"
#include "sim/stream_tags.h"

namespace coolstream::core {
namespace {

/// Pseudo node id used for latency draws on the client <-> boot-strap path.
constexpr net::NodeId kBootstrapNodeId = net::kInvalidNode - 1;

/// Per-connection credit cap (whole blocks) for the fluid data plane.
constexpr double kMaxFlowCredit = 4.0;

/// Most shards a System accepts (SystemConfig::shards, COOLSTREAM_SHARDS).
constexpr int kMaxShards = 64;

/// SystemConfig::shards, else COOLSTREAM_SHARDS, else 1.
std::size_t resolve_shard_count(int configured) {
  if (configured < 0 || configured > kMaxShards) {
    throw std::invalid_argument(
        "SystemConfig: shards must be in [0, 64], got " +
        std::to_string(configured));
  }
  if (configured > 0) return static_cast<std::size_t>(configured);
  const char* env = std::getenv("COOLSTREAM_SHARDS");
  if (env == nullptr || *env == '\0') return 1;
  // The whole value must be the number: "4x", " 4" and "+4" are typos a
  // CI matrix could otherwise run quietly at some other shard count.
  const char* end = env + std::strlen(env);
  int n = 0;
  const auto [rest, ec] = std::from_chars(env, end, n);
  if (ec != std::errc() || rest != end || n < 1 || n > kMaxShards) {
    throw std::invalid_argument(
        std::string("COOLSTREAM_SHARDS must be an integer in [1, 64], got \"") +
        env + '"');
  }
  return static_cast<std::size_t>(n);
}

/// The accounting category a message kind counts under.
net::MessageKind category_of(Message::Kind kind) noexcept {
  switch (kind) {
    case Message::Kind::kBootstrapRequest:
    case Message::Kind::kGossip:
      return net::MessageKind::kGossip;
    case Message::Kind::kSubscribe:
    case Message::Kind::kUnsubscribe:
      return net::MessageKind::kSubscribe;
    case Message::Kind::kPartnershipRequest:
    case Message::Kind::kPartnershipConfirm:
    case Message::Kind::kPartnershipReject:
    case Message::Kind::kBreak:
      break;
  }
  return net::MessageKind::kPartnership;
}

}  // namespace

System::System(sim::Simulation& simulation, Params params,
               SystemConfig config, logging::LogServer* log_server)
    : sim_(simulation),
      params_(params),
      config_(config),
      log_(log_server),
      latency_model_(simulation.rng().next_u64()),
      transport_(simulation, latency_model_),
      workers_(resolve_shard_count(config.shards)) {
  params_.validate();
  if (std::max(params_.max_partners, config_.server_max_partners) >
      kMaxPartnerCap) {
    throw std::invalid_argument("System: partner caps must be at most " +
                                std::to_string(kMaxPartnerCap));
  }
  shard_scratch_.resize(workers_.shard_count());
}

System::~System() {
  tick_handle_.cancel();
  for (net::NodeId id = 0; id < peer_count_; ++id) std::destroy_at(slot(id));
}

void System::start() {
  assert(!started_);
  started_ = true;
  // Stream-tag collision check: every per-peer RNG substream tag must stay
  // outside the reserved subsystem namespace, for the widest id this run
  // can ever mint — otherwise a peer and e.g. the churn driver would share
  // one random stream and sharding could perturb the workload.
  assert(sim::peer_stream_tag(net::kInvalidNode) >=
         sim::kMaxReservedStreamTag);
  for (int s = 0; s < config_.server_count; ++s) {
    PeerSpec spec;
    spec.user_id = 0;  // servers are infrastructure, not users
    spec.kind = PeerKind::kServer;
    spec.type = net::ConnectionType::kDirect;
    spec.address = net::random_public_address(sim_.rng());
    spec.upload_capacity = units::BitRate(config_.server_capacity_bps);
    add_peer(spec).start_join();
  }
  tick_handle_ =
      sim_.every(params_.flow_dt(), params_.flow_dt(), [this] { tick(); });
  if (config_.audit_period > 0.0) {
    auditor_ = std::make_unique<InvariantAuditor>(*this);
    auditor_->start(Duration(config_.audit_period));
  }
}

net::NodeId System::join(const PeerSpec& spec) {
  assert(started_ && "call start() before join()");
  assert(spec.kind == PeerKind::kViewer);
  PeerSpec s = spec;
  if (s.user_id == 0) s.user_id = next_user_auto_++;
  Peer& p = add_peer(s);
  const net::NodeId id = p.id();
  ++live_viewers_;
  ++stats_.joins;
  p.start_join();
  notify(id, SessionEvent::kJoined);
  return id;
}

void System::leave(net::NodeId id, bool graceful) {
  Peer* p = live_peer(id);
  if (p == nullptr) return;
  assert(p->kind() == PeerKind::kViewer && "servers never leave");

  if (graceful) {
    logging::ActivityReport r;
    r.header = {p->spec().user_id,
                p->session_id().value(),
                now().value()};
    r.activity = logging::Activity::kLeave;
    r.had_incoming = p->had_incoming();
    r.had_outgoing = p->had_outgoing();
    report(id, logging::Report(r));
  }

  // Notify partners (graceful FIN or TCP reset; either way partnerships
  // break promptly).  Children of this node are among its partners, so the
  // notification also triggers their parent reselection.
  // The ids go through a reused scratch, taken out of the member for the
  // loop so a nested leave() from a partner callback gets its own.
  std::vector<net::NodeId> partner_ids = std::move(leave_scratch_);
  partner_ids.clear();
  for (const PartnerView ps : p->partners()) partner_ids.push_back(ps.id());
  p->set_left();
  // O(1) swap-remove through the position index, before the partners hear
  // of it, so is_live(id) already answers false in their callbacks.  The
  // sentinel goes in last, which also covers moved == id.
  const std::uint32_t pos = live_index_[id];
  assert(live_[pos] == id);
  const net::NodeId moved = live_.back();
  live_[pos] = moved;
  live_index_[moved] = pos;
  live_index_[id] = kNotLive;
  live_.pop_back();
  for (net::NodeId q : partner_ids) {
    if (Peer* qp = live_peer(q)) qp->on_partner_left(id);
  }
  leave_scratch_ = std::move(partner_ids);

  --live_viewers_;
  ++stats_.leaves;
  notify(id, SessionEvent::kLeft);
}

Peer& System::add_peer(const PeerSpec& spec) {
  static_assert(std::has_single_bit(kPeersPerChunk));
  const net::NodeId id = peer_count_;
  if (id % kPeersPerChunk == 0) {
    // Left uninitialised: a chunk's pages are touched only as its slots
    // are built.
    chunks_.push_back(
        std::make_unique_for_overwrite<PeerSlot[]>(kPeersPerChunk));
  }
  Peer* p = std::construct_at(
      reinterpret_cast<Peer*>(chunks_.back()[id % kPeersPerChunk].bytes),
      *this, id, spec, units::SessionId(next_session_id_++), now());
  ++peer_count_;
  // Ids are minted densely, so the live index grows in step.
  assert(live_index_.size() == id);
  live_index_.push_back(static_cast<std::uint32_t>(live_.size()));
  live_.push_back(id);
  adverts_.emplace_back();
  return *p;
}

Peer* System::slot(net::NodeId id) const noexcept {
  assert(id < peer_count_);
  return std::launder(reinterpret_cast<Peer*>(
      chunks_[id / kPeersPerChunk][id % kPeersPerChunk].bytes));
}

bool System::is_live(net::NodeId id) const noexcept {
  return id < live_index_.size() && live_index_[id] != kNotLive;
}

Mcache::SampleScratch& System::mcache_scratch(net::NodeId id) noexcept {
  return shard_scratch_[shard_of(id)].mcache;
}

std::vector<McacheEntry>& System::candidate_scratch(net::NodeId id) noexcept {
  return shard_scratch_[shard_of(id)].candidates;
}

Peer* System::peer(net::NodeId id) noexcept {
  return id < peer_count_ ? slot(id) : nullptr;
}

const Peer* System::peer(net::NodeId id) const noexcept {
  return id < peer_count_ ? slot(id) : nullptr;
}

Peer* System::live_peer(net::NodeId id) noexcept {
  return is_live(id) ? slot(id) : nullptr;
}

int System::max_partners_of(const Peer& p) const noexcept {
  if (p.kind() == PeerKind::kServer) return config_.server_max_partners;
  // A viewer's partner budget scales with its uplink: beyond its own
  // source partnerships it only accepts what its capacity can plausibly
  // feed (each extra partner subscribes ~1.5 sub-streams on average).
  // This is the admission-control role the paper assigns to M — "the
  // parent will continue accepting new children as long as its total
  // number of partners is less than the upper bound M" — with M set the
  // only way a deployment can set it: per the peer's capacity.
  const double substream_units =
      p.spec().upload_capacity.value() /
      params_.substream_rate_bps();
  const int budget = kInitialPartnerTarget +
                     static_cast<int>(std::ceil(substream_units / 1.5));
  return std::clamp(budget, kInitialPartnerTarget + 1, params_.max_partners);
}

bool System::is_reachable(net::NodeId id) const noexcept {
  const Peer* p = peer(id);
  if (p == nullptr || !net::accepts_inbound(p->spec().type)) return false;
  // A connectivity flap looks exactly like a NAT whose mapping was lost:
  // new inbound connections fail while established ones keep flowing.
  return faults_ == nullptr || !faults_->inbound_blocked(now(), id);
}

SeqNum System::source_head(SubstreamId j, Tick t) const noexcept {
  // Global blocks [0, G) have been produced by time t; sub-stream j holds
  // those g with g mod K == j.
  const auto produced = static_cast<std::int64_t>(
      std::floor(t.value() * params_.block_rate));
  return last_seq_at_or_below(GlobalSeq(produced - 1), j,
                              params_.substream_count);
}

// --------------------------------------------------------------------------
// Protocol plumbing
// --------------------------------------------------------------------------

void System::request_bootstrap_list(net::NodeId requester) {
  // One one-way delay models the whole request/response exchange; the
  // list is sampled when it arrives (server-side state at that instant).
  post(Message{.from = requester,
               .to = kBootstrapNodeId,
               .kind = Message::Kind::kBootstrapRequest});
}

void System::attempt_partnership(net::NodeId from, net::NodeId to) {
  post(Message{
      .from = from, .to = to, .kind = Message::Kind::kPartnershipRequest});
}

void System::exchange_bm(net::NodeId from, std::span<const SeqNum> lanes,
                         std::size_t partners) {
  assert(deferring_ && "BM exchanges run in phase P");
  assert(partners <= std::numeric_limits<std::uint16_t>::max());
  if (partners == 0) return;
  ShardScratch& scratch = shard_scratch_[shard_of(from)];
  defer(from, {.index = static_cast<std::uint32_t>(scratch.bm_lanes.size()),
               .count = static_cast<std::uint16_t>(partners),
               .tag = Deferred::Tag::kBmPublish});
  scratch.bm_lanes.insert(scratch.bm_lanes.end(), lanes.begin(), lanes.end());
}

void System::mark_mutual(Peer& a, net::NodeId b) {
  Peer* pb = live_peer(b);
  if (pb == nullptr || !pb->partners().contains(a.id())) return;
  if (a.mark_mutual(b, tick_stamp_)) pb->mark_mutual(a.id(), tick_stamp_);
}

void System::subscribe(net::NodeId child, net::NodeId parent, SubstreamId j) {
  post(Message{.from = child,
               .to = parent,
               .substream = j,
               .kind = Message::Kind::kSubscribe});
}

void System::unsubscribe(net::NodeId child, net::NodeId parent,
                         SubstreamId j) {
  post(Message{.from = child,
               .to = parent,
               .substream = j,
               .kind = Message::Kind::kUnsubscribe});
}

void System::send_gossip(net::NodeId from, net::NodeId to,
                         std::span<const McacheEntry> entries) {
  assert(entries.size() <= Message::kMaxEntries);
  Message msg{.from = from,
              .to = to,
              .kind = Message::Kind::kGossip,
              .count = static_cast<std::uint8_t>(entries.size())};
  std::copy(entries.begin(), entries.end(), msg.entries.begin());
  post(msg);
}

void System::break_partnership(net::NodeId a, net::NodeId b) {
  post(Message{.from = a, .to = b, .kind = Message::Kind::kBreak});
}

void System::post(const Message& msg) {
  if (deferring_) {
    ShardScratch& scratch = shard_scratch_[shard_of(msg.from)];
    defer(msg.from,
          {.to = msg.to,
           .index = static_cast<std::uint32_t>(scratch.entries.size()),
           .substream = msg.substream,
           .count = msg.count,
           .kind = msg.kind,
           .tag = Deferred::Tag::kMessage});
    const std::span<const McacheEntry> payload = msg.payload();
    scratch.entries.insert(scratch.entries.end(), payload.begin(),
                           payload.end());
    return;
  }
  if (msg.delayed()) {
    send(msg);
    return;
  }
  transport_.count_only(category_of(msg.kind));
  deliver(msg);
}

void System::send(const Message& msg) {
  assert(!deferring_ && "messages leave from serial contexts");
  assert(msg.delayed() && "zero-latency kinds are delivered by post");
  for (const Duration delay :
       transport_.route(msg.from, msg.to, category_of(msg.kind))) {
    const auto arrive = [this, msg] { deliver(msg); };
    static_assert(sizeof(arrive) <= sim::detail::InlineFn::kInlineSize &&
                      std::is_trivially_copyable_v<decltype(arrive)>,
                  "a delivery must stay a small inline event callback");
    sim_.after(delay, arrive);
  }
}

void System::deliver(const Message& msg) {
  // Every kind but the boot-strap round trip acts on the destination.  The
  // sender is looked up only where its state matters: each lookup is a
  // likely cache miss at scale.
  Peer* dest = live_peer(msg.to);  // null if departed, or the boot-strap node
  switch (msg.kind) {
    case Message::Kind::kBootstrapRequest: {  // answered to the requester
      Peer* requester = live_peer(msg.from);
      if (requester == nullptr) return;
      static_assert(kMcacheSize >= kBootstrapListSize,
                    "an mCache must hold one boot-strap list");
      sample_bootstrap_list(live_, kBootstrapListSize, msg.from, sim_.rng(),
                            bootstrap_idx_scratch_, bootstrap_ids_scratch_);
      bootstrap_list_scratch_.clear();
      for (const net::NodeId id : bootstrap_ids_scratch_) {
        bootstrap_list_scratch_.push_back(
            McacheEntry{peer(id)->joined_at(), id, is_reachable(id)});
      }
      requester->on_bootstrap_list(bootstrap_list_scratch_);
      return;
    }
    case Message::Kind::kPartnershipRequest: {
      const bool accept = dest != nullptr && is_live(msg.from) &&
                          is_reachable(msg.to) && !dest->partners_full() &&
                          !dest->partners().contains(msg.from);
      if (accept) {
        ++stats_.partnership_accepts;
        dest->on_partnership_established(msg.from, /*incoming=*/true);
        mark_mutual(*dest, msg.from);  // crossing requests
      } else {
        ++stats_.partnership_rejects;
      }
      send(Message{.from = msg.to,
                   .to = msg.from,
                   .kind = accept ? Message::Kind::kPartnershipConfirm
                                  : Message::Kind::kPartnershipReject});
      return;
    }
    case Message::Kind::kPartnershipConfirm:
      if (dest != nullptr) {
        dest->on_partnership_established(msg.from, /*incoming=*/false);
        mark_mutual(*dest, msg.from);
      }
      return;
    case Message::Kind::kPartnershipReject:
      if (dest != nullptr) dest->on_partnership_rejected(msg.from);
      return;
    case Message::Kind::kGossip:
      if (dest != nullptr) dest->on_gossip(msg.payload());
      return;
    case Message::Kind::kSubscribe:
      ++stats_.subscriptions;
      if (dest != nullptr) dest->on_subscribe(msg.from, msg.substream);
      return;
    case Message::Kind::kUnsubscribe:
      if (dest != nullptr) dest->on_unsubscribe(msg.from, msg.substream);
      return;
    case Message::Kind::kBreak:
      if (Peer* caller = live_peer(msg.from)) caller->on_partner_left(msg.to);
      // Re-checked: the caller's callback ran in between.
      if (Peer* d = live_peer(msg.to)) d->on_partner_left(msg.from);
      return;
  }
}

void System::report(net::NodeId from, const logging::Report& r) {
  if (deferring_) {
    std::vector<logging::Report>& reports =
        shard_scratch_[shard_of(from)].reports;
    defer(from, {.index = static_cast<std::uint32_t>(reports.size()),
                 .tag = Deferred::Tag::kReport});
    reports.push_back(r);
    return;
  }
  transport_.count_only(net::MessageKind::kReport);
  if (log_ != nullptr) log_->submit(r);
}

void System::notify(net::NodeId id, SessionEvent event) {
  if (deferring_) {
    defer(id, {.count = static_cast<std::uint16_t>(event),
               .tag = Deferred::Tag::kNotify});
    return;
  }
  if (observer) observer(id, event);
}

// --------------------------------------------------------------------------
// Data plane: the phased, shardable tick
//
// The serial tick interleaved flow transfer and protocol timers in live_
// order; the sharded engine replays the same physics as three phases whose
// outputs are pure functions of the frozen tick-start state:
//
//   F1 (by parent)  rates from frozen heads -> InFlow slots   | barrier
//   F2 (by child)   apply slots: credits, skips, inserts      | barrier
//   P  (by peer)    bytes_up roll-up + on_tick, cross-peer    | barrier
//                   calls deferred as effects                 |
//   flush (serial)  effects applied in canonical sender order
//
// One shard runs the identical engine inline, so the 1-shard run IS the
// serial baseline and every N produces bit-identical state.
// --------------------------------------------------------------------------

void System::tick() {
  const Duration dt = params_.flow_dt();
  const Tick t = now();
  const auto k_streams = static_cast<std::size_t>(params_.substream_count);
  ++tick_stamp_;

  // Freeze the tick-start view: peer order and flow slots.
  tick_order_.assign(live_.begin(), live_.end());
  for (ShardScratch& s : shard_scratch_) {
    s.positions.clear();
    s.outbox.clear();
    s.entries.clear();
    s.bm_lanes.clear();
    s.reports.clear();
  }
  for (std::uint32_t pos = 0;
       pos < static_cast<std::uint32_t>(tick_order_.size()); ++pos) {
    const net::NodeId id = tick_order_[pos];
    shard_scratch_[shard_of(id)].positions.push_back(pos);
  }
  if (inflow_.size() < peer_count_ * k_streams) {
    inflow_.resize(peer_count_ * k_streams);
  }

  workers_.run([this, dt](std::size_t s) { flow_rates(s, dt); });
  workers_.run([this, dt](std::size_t s) { flow_apply(s, dt); });
  deferring_ = true;
  workers_.run([this, t](std::size_t s) { protocol_phase(s, t); });
  deferring_ = false;

  for (ShardScratch& s : shard_scratch_) {
    stats_.blocks_transferred += s.blocks_transferred;
    s.blocks_transferred = 0;
  }
  flush_effects();
}

void System::flow_rates(std::size_t shard, Duration dt) {
  const units::BlockRate sub_rate = params_.substream_block_rate_typed();
  const units::BlockRate catchup_cap = sub_rate * params_.max_catchup_factor;
  const auto k_streams = static_cast<std::size_t>(params_.substream_count);
  ShardScratch& scratch = shard_scratch_[shard];
  std::vector<units::BlockRate>& demands = scratch.demands;
  std::vector<units::BlockRate>& rates = scratch.rates;

  for (const std::uint32_t pos : scratch.positions) {
    const net::NodeId id = tick_order_[pos];
    Peer* parent = peer(id);
    assert(is_live(id) && "liveness changes only in join() and leave()");
    auto& links = parent->out_links();
    // Compact stale links first: a child that left or reselected this
    // sub-stream's parent.  Exactly one parent passes the parent_of()
    // check for a given (child, sub-stream), so each slot published below
    // has a unique writer this phase.
    std::erase_if(links, [this, id](const OutLink& l) {
      const Peer* child = live_peer(l.child);
      return child == nullptr || child->parent_of(l.substream) != id;
    });
    if (links.empty()) continue;

    // Demands per outgoing sub-stream connection (blocks/s), from heads
    // frozen at tick start — no phase writes them until F2.
    demands.resize(links.size());
    for (std::size_t k = 0; k < links.size(); ++k) {
      const OutLink& l = links[k];
      const Peer* child = peer(l.child);
      const BlockCount backlog =
          parent->head(l.substream) - child->head(l.substream);
      if (backlog <= BlockCount::zero()) {
        demands[k] = sub_rate;
      } else {
        demands[k] =
            std::min(units::rate_of(backlog, dt) + sub_rate, catchup_cap);
      }
    }

    units::BlockRate capacity = parent->upload_block_rate();
    if (faults_ != nullptr) {
      capacity = capacity * faults_->capacity_factor(now(), id);
    }
    rates.resize(links.size());
    scratch.active.resize(links.size());
    net::max_min_fair(capacity, demands, rates, scratch.active);

    // Publish one InFlow slot per granted link.
    for (std::size_t k = 0; k < links.size(); ++k) {
      if (rates[k] <= units::BlockRate::zero()) continue;
      const OutLink& l = links[k];
      InFlow& slot = inflow_[l.child * k_streams + l.substream.index()];
      slot.rate = rates[k];
      slot.parent_head = parent->head(l.substream);
      slot.parent = id;
      slot.pushed = 0;
      slot.stamp = tick_stamp_;
    }
  }
}

void System::flow_apply(std::size_t shard, Duration dt) {
  const units::Bytes block_bytes = params_.block_bytes();
  const BlockCount window = params_.buffer_block_count();
  const auto k_streams = static_cast<std::size_t>(params_.substream_count);
  ShardScratch& scratch = shard_scratch_[shard];
  std::uint64_t& blocks = scratch.blocks_transferred;

  for (const std::uint32_t pos : scratch.positions) {
    const net::NodeId id = tick_order_[pos];
    Peer* child = peer(id);
    assert(is_live(id) && "liveness changes only in join() and leave()");
    for (SubstreamId j : substreams(params_.substream_count)) {
      InFlow& slot = inflow_[id * k_streams + j.index()];
      if (slot.stamp != tick_stamp_) continue;  // no grant this tick
      double& credit = child->credit(j);
      credit = std::min(credit + slot.rate * dt, kMaxFlowCredit);

      const SeqNum parent_head = slot.parent_head;
      // Blocks already past the child's playback deadline are not "in
      // need" (§IV-B) and are never pushed; jump the child forward.
      const SeqNum dead = child->deadline_floor(j);
      if (child->head(j) < dead) {
        child->count_deadline_skip();
        child->sync().start_at(j, dead + BlockCount(1));
      }
      // The parent's cache window is a pure function of its frozen head
      // and the deployment-wide window size — no cross-shard read.
      const SeqNum oldest = cache_window_start(parent_head, window);
      while (credit >= 1.0 && child->head(j) < parent_head) {
        if (child->head(j) + BlockCount(1) < oldest) {
          // The child fell behind the parent's cache window: the missing
          // range is gone (pushed out by playout) and must be skipped.
          // The head lands on oldest - 1, still below parent_head.
          child->handle_window_gap(j, oldest);
        }
        // Blocks go out in order: the next one is always head + 1.
        child->sync().advance(j);
        credit -= 1.0;
        ++blocks;
        ++slot.pushed;
        child->add_bytes_down(block_bytes);
      }
    }
  }
}

void System::protocol_phase(std::size_t shard, Tick t) {
  const units::Bytes block_bytes = params_.block_bytes();
  const auto k_streams = static_cast<std::size_t>(params_.substream_count);
  ShardScratch& scratch = shard_scratch_[shard];
  for (const std::uint32_t pos : scratch.positions) {
    const net::NodeId id = tick_order_[pos];
    Peer* p = peer(id);
    assert(is_live(id) && "liveness changes only in join() and leave()");
    // Parent-side roll-up of what F2 moved on our out-links: children
    // recorded per-slot push counts; we own our bytes_up tally.
    for (const OutLink& l : p->out_links()) {
      const InFlow& slot = inflow_[l.child * k_streams + l.substream.index()];
      if (slot.stamp != tick_stamp_ || slot.parent != id) continue;
      p->add_bytes_up(block_bytes * slot.pushed);
    }
    scratch.pos = pos;
    p->on_tick(t);
  }
}

void System::defer(net::NodeId from, Deferred effect) {
  ShardScratch& scratch = shard_scratch_[shard_of(from)];
  assert(deferring_ && tick_order_[scratch.pos] == from &&
         "effects come from the peer its shard is running");
  effect.pos = scratch.pos;
  scratch.outbox.push_back(effect);
}

void System::flush_effects() {
  assert(!deferring_ && "flush must run serially");
  for (ShardScratch& s : shard_scratch_) s.flushed = 0;
  // Each outbox is in non-decreasing `pos` order, so one cursor per shard
  // walks them all in canonical sender order: O(positions + records).
  for (std::uint32_t pos = 0;
       pos < static_cast<std::uint32_t>(tick_order_.size()); ++pos) {
    const net::NodeId from = tick_order_[pos];
    ShardScratch& scratch = shard_scratch_[shard_of(from)];
    while (scratch.flushed < scratch.outbox.size() &&
           scratch.outbox[scratch.flushed].pos == pos) {
      apply_effect(from, scratch, scratch.outbox[scratch.flushed++]);
    }
  }
#ifndef NDEBUG
  for (const ShardScratch& s : shard_scratch_) {
    assert(s.flushed == s.outbox.size() && "unclaimed outbox records");
  }
#endif
}

void System::apply_effect(net::NodeId from, const ShardScratch& scratch,
                          const Deferred& effect) {
  switch (effect.tag) {
    case Deferred::Tag::kBmPublish: {
      // Zero latency: the 1-s exchange period dominates the tens-of-ms
      // delivery delay.  Still one message per partner for the
      // control-overhead figures.
      transport_.count_only(net::MessageKind::kBufferMap, effect.count);
      Advertisement& ad = adverts_[from];
      std::copy_n(scratch.bm_lanes.begin() + effect.index,
                  params_.substream_count, ad.lanes.begin());
      ad.time = now();
      ad.stamp = tick_stamp_;
      // A partner that left without telling the sender (a half-open
      // partnership) is dropped at the sender's exchange, in partner
      // order; on_partner_left erases just that partner.
      Peer* sender = peer(from);
      for (std::size_t i = 0; i < sender->partner_count();) {
        const net::NodeId q = sender->partners()[i].id();
        if (is_live(q)) {
          ++i;
        } else {
          sender->on_partner_left(q);
        }
      }
      return;
    }
    case Deferred::Tag::kMessage: {
      Message msg{.from = from,
                  .to = effect.to,
                  .substream = effect.substream,
                  .kind = effect.kind,
                  .count = static_cast<std::uint8_t>(effect.count)};
      std::copy_n(scratch.entries.begin() + effect.index, effect.count,
                  msg.entries.begin());
      if (msg.kind == Message::Kind::kSubscribe) {
        // Stale intent: an earlier flush effect (say, a broken
        // partnership) made the sender reselect this sub-stream's parent
        // mid-flush; applying the old subscription would plant a serving
        // link the child no longer points at.
        const Peer* p = peer(from);
        if (p == nullptr || p->parent_of(msg.substream) != msg.to) return;
      } else if (msg.kind == Message::Kind::kUnsubscribe) {
        // Mirror guard: if a mid-flush reselect re-subscribed the sender
        // to this same parent, the deferred unsubscribe must not tear the
        // fresh link down.
        const Peer* p = peer(from);
        if (p != nullptr && p->parent_of(msg.substream) == msg.to) return;
      }
      post(msg);
      return;
    }
    case Deferred::Tag::kReport:
      report(from, scratch.reports[effect.index]);
      return;
    case Deferred::Tag::kNotify:
      notify(from, static_cast<SessionEvent>(effect.count));
      return;
  }
}

// --------------------------------------------------------------------------
// Snapshot
// --------------------------------------------------------------------------

net::TopologySnapshot System::snapshot() const {
  net::TopologySnapshot snap;
  snap.time = sim_.now().value();
  snap.nodes.reserve(live_.size());
  for (net::NodeId id : live_) {
    const Peer* p = peer(id);
    assert(p->alive());
    net::SnapshotNode node;
    node.id = id;
    node.type = p->spec().type;
    node.is_server = p->kind() == PeerKind::kServer;
    node.upload_capacity_bps =
        p->spec().upload_capacity.value();
    node.parents.reserve(
        static_cast<std::size_t>(params_.substream_count));
    for (SubstreamId j : substreams(params_.substream_count)) {
      node.parents.push_back(p->parent_of(j));
    }
    node.partners.reserve(p->partner_count());
    for (const PartnerView ps : p->partners()) node.partners.push_back(ps.id());
    snap.nodes.push_back(std::move(node));
  }
  snap.compute_depths();
  return snap;
}

}  // namespace coolstream::core
