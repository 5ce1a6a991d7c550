#include "core/system.h"

#include <algorithm>
#include <cassert>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>

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

}  // namespace

System::System(sim::Simulation& simulation, Params params,
               SystemConfig config, logging::LogServer* log_server)
    : sim_(simulation),
      params_(params),
      config_(config),
      log_(log_server),
      latency_model_(simulation.rng().next_u64(), config.latency),
      transport_(simulation, latency_model_),
      workers_(resolve_shard_count(config.shards)),
      // Largest control-plane batch: a boot-strap list response (gossip
      // pushes carry at most 3 sampled entries + self).
      mcache_arena_(std::max<std::size_t>(
          4, params.bootstrap_list_size > 0
                 ? static_cast<std::size_t>(params.bootstrap_list_size)
                 : 0)) {
  params_.validate();
  shard_scratch_.resize(workers_.shard_count());
}

System::~System() { tick_handle_.cancel(); }

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
    const net::NodeId id = static_cast<net::NodeId>(peers_.size());
    peers_.push_back(std::make_unique<Peer>(
        *this, id, spec, units::SessionId(next_session_id_++), now()));
    add_live(id);
    bootstrap_.add(id, now());
    peers_.back()->start_join();
  }
  tick_handle_ =
      sim_.every(params_.flow_dt(), params_.flow_dt(), [this] { tick(); });
#ifdef COOLSTREAM_AUDIT
  if (config_.audit_period > 0.0) {
    auditor_ = std::make_unique<InvariantAuditor>(*this);
    auditor_->start(Duration(config_.audit_period));
  }
#endif
}

net::NodeId System::join(const PeerSpec& spec) {
  assert(started_ && "call start() before join()");
  assert(spec.kind == PeerKind::kViewer);
  PeerSpec s = spec;
  if (s.user_id == 0) s.user_id = next_user_auto_++;
  const net::NodeId id = static_cast<net::NodeId>(peers_.size());
  peers_.push_back(std::make_unique<Peer>(
      *this, id, s, units::SessionId(next_session_id_++), now()));
  add_live(id);
  bootstrap_.add(id, now());
  ++live_viewers_;
  viewers_over_time_.add(now(), +1);
  ++stats_.joins;
  peers_.back()->start_join();
  notify(id, SessionEvent::kJoined);
  return id;
}

void System::leave(net::NodeId id, bool graceful) {
  Peer* p = peer(id);
  if (p == nullptr || !p->alive()) return;
  assert(p->kind() == PeerKind::kViewer && "servers never leave");

  if (graceful) {
    logging::ActivityReport r;
    r.header = {p->spec().user_id,
                p->session_id().value(),
                now().value()};
    r.activity = logging::Activity::kLeave;
    r.had_incoming = p->had_incoming();
    r.had_outgoing = p->had_outgoing();
    report(logging::Report(r));
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
  for (net::NodeId q : partner_ids) {
    if (Peer* qp = peer(q); qp != nullptr && qp->alive()) {
      qp->on_partner_left(id);
    }
  }
  leave_scratch_ = std::move(partner_ids);

  bootstrap_.remove(id);
  // O(1) swap-remove through the position index.
  const std::uint32_t pos = live_index_[id];
  assert(live_[pos] == id);
  const net::NodeId moved = live_.back();
  live_[pos] = moved;
  live_index_[moved] = pos;
  live_.pop_back();
  --live_viewers_;
  viewers_over_time_.add(now(), -1);
  ++stats_.leaves;
  notify(id, SessionEvent::kLeft);
}

void System::add_live(net::NodeId id) {
  // Ids are minted densely from peers_.size(), so the index grows in step.
  assert(live_index_.size() == id);
  live_index_.push_back(static_cast<std::uint32_t>(live_.size()));
  live_.push_back(id);
}

bool System::is_live(net::NodeId id) const noexcept {
  // During the parallel protocol phase peers flip their own phase bytes
  // (join/buffer/play transitions); cross-shard liveness queries answer
  // from the tick-start snapshot instead — deterministic and race-free.
  if (in_protocol_phase_) {
    return id < alive_snapshot_.size() && alive_snapshot_[id] != 0;
  }
  const Peer* p = peer(id);
  return p != nullptr && p->alive();
}

std::size_t System::current_shard() const noexcept {
  const TickEffectSink* s = tick_effect_sink();
  return s != nullptr ? s->shard : 0;
}

Mcache::SampleScratch& System::mcache_scratch() noexcept {
  return shard_scratch_[current_shard()].mcache;
}

std::vector<McacheEntry>& System::candidate_scratch() noexcept {
  return shard_scratch_[current_shard()].candidates;
}

Peer* System::peer(net::NodeId id) noexcept {
  return id < peers_.size() ? peers_[id].get() : nullptr;
}

const Peer* System::peer(net::NodeId id) const noexcept {
  return id < peers_.size() ? peers_[id].get() : nullptr;
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
  const int budget = params_.initial_partner_target +
                     static_cast<int>(std::ceil(substream_units / 1.5));
  return std::clamp(budget, params_.initial_partner_target + 1,
                    params_.max_partners);
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
  if (TickEffectSink* s = tick_effect_sink()) {
    s->emit(EffectBootstrap{});
    return;
  }
  // One one-way delay models the whole request/response exchange; the
  // list is sampled when it arrives (server-side state at that instant).
  transport_.send(requester, kBootstrapNodeId, net::MessageKind::kGossip,
                  [this, requester] {
                    Peer* p = peer(requester);
                    if (p == nullptr || !p->alive()) return;
                    bootstrap_.random_list_into(
                        static_cast<std::size_t>(params_.bootstrap_list_size),
                        requester, sim_.rng(), bootstrap_idx_scratch_,
                        bootstrap_ids_scratch_);
                    auto batch = mcache_arena_.make();
                    for (net::NodeId id : bootstrap_ids_scratch_) {
                      batch.push_back(McacheEntry{
                          bootstrap_.joined_at(id), id, is_reachable(id)});
                    }
                    p->on_bootstrap_list(batch.items());
                  });
}

void System::attempt_partnership(net::NodeId from, net::NodeId to) {
  if (TickEffectSink* s = tick_effect_sink()) {
    s->emit(EffectAttempt{to});
    return;
  }
  transport_.send(from, to, net::MessageKind::kPartnership, [this, from, to] {
    Peer* callee = peer(to);
    Peer* caller = peer(from);
    const bool accept =
        callee != nullptr && callee->alive() && caller != nullptr &&
        caller->alive() && is_reachable(to) && !callee->partners_full() &&
        !callee->partners().contains(from);
    if (accept) {
      ++stats_.partnership_accepts;
      callee->on_partnership_established(from, /*incoming=*/true);
      transport_.send(to, from, net::MessageKind::kPartnership,
                      [this, from, to] {
                        Peer* c = peer(from);
                        if (c == nullptr || !c->alive()) return;
                        c->on_partnership_established(to, /*incoming=*/false);
                      });
    } else {
      ++stats_.partnership_rejects;
      transport_.send(to, from, net::MessageKind::kPartnership,
                      [this, from, to] {
                        Peer* c = peer(from);
                        if (c == nullptr || !c->alive()) return;
                        c->on_partnership_rejected(to);
                      });
    }
  });
}

void System::push_bm(net::NodeId from, net::NodeId to, const BufferMap& bm) {
  assert(tick_effect_sink() == nullptr && "phase P uses broadcast_bm");
  deliver_bm(from, to, bm, bm.subscription_bits());
}

void System::broadcast_bm([[maybe_unused]] net::NodeId from,
                          const BufferMap& base,
                          const PartnerTable& partners,
                          std::span<const net::NodeId> parents) {
  TickEffectSink* s = tick_effect_sink();
  assert(s != nullptr && "BM broadcasts run in phase P");
  assert(tick_order_[s->pos] == from);
  if (partners.empty()) return;
  ShardScratch& scratch = shard_scratch_[s->shard];
  EffectBmPush push;
  push.base = static_cast<std::uint32_t>(scratch.bm_bases.size());
  push.first = static_cast<std::uint32_t>(scratch.bm_targets.size());
  push.count = static_cast<std::uint32_t>(partners.size());
  scratch.bm_bases.push_back(base);
  for (const PartnerView ps : partners) {
    std::uint32_t bits = 0;
    for (std::size_t j = 0; j < parents.size(); ++j) {
      bits |= static_cast<std::uint32_t>(parents[j] == ps.id()) << j;
    }
    scratch.bm_targets.push_back(ShardScratch::BmTarget{ps.id(), bits});
  }
  s->emit(push);
}

void System::deliver_bm(net::NodeId from, net::NodeId to,
                        const BufferMap& base, std::uint32_t sub_bits) {
  // BM exchange is modelled with zero latency (the exchange period, 1 s,
  // dominates the tens-of-ms delivery delay); messages are still counted
  // for control-overhead reporting.
  transport_.count_only(net::MessageKind::kBufferMap);
  Peer* dest = peer(to);
  if (dest == nullptr || !dest->alive()) {
    if (Peer* src = peer(from); src != nullptr && src->alive()) {
      src->on_partner_left(to);  // lazily clean up half-open partnerships
    }
    return;
  }
  dest->on_bm_received(from, base, sub_bits);
}

void System::subscribe(net::NodeId child, net::NodeId parent, SubstreamId j) {
  if (TickEffectSink* s = tick_effect_sink()) {
    s->emit(EffectSubscribe{parent, j});
    return;
  }
  ++stats_.subscriptions;
  transport_.count_only(net::MessageKind::kSubscribe);
  if (Peer* p = peer(parent); p != nullptr && p->alive()) {
    p->on_subscribe(child, j);
  }
}

void System::unsubscribe(net::NodeId child, net::NodeId parent,
                         SubstreamId j) {
  if (TickEffectSink* s = tick_effect_sink()) {
    s->emit(EffectUnsubscribe{parent, j});
    return;
  }
  transport_.count_only(net::MessageKind::kSubscribe);
  if (Peer* p = peer(parent); p != nullptr && p->alive()) {
    p->on_unsubscribe(child, j);
  }
}

void System::send_gossip(net::NodeId from, net::NodeId to,
                         MessageArena<McacheEntry>::Batch batch) {
  // The lease rides inside the delivery callback: a dropped message
  // releases it on callback destruction, a duplicated one copies it
  // (refcount bump, no heap).  Arena batches are main-thread-only, so this
  // entry point is serial-context-only by construction.
  assert(tick_effect_sink() == nullptr);
  transport_.send(from, to, net::MessageKind::kGossip,
                  [this, to, batch = std::move(batch)] {
                    if (Peer* p = peer(to); p != nullptr && p->alive()) {
                      p->on_gossip(batch.items());
                    }
                  });
}

void System::send_gossip_entries(net::NodeId from, net::NodeId to,
                                 std::span<const McacheEntry> entries) {
  if (TickEffectSink* s = tick_effect_sink()) {
    std::vector<McacheEntry>& scratch = shard_scratch_[s->shard].gossip_entries;
    EffectGossip gossip;
    gossip.to = to;
    gossip.first = static_cast<std::uint32_t>(scratch.size());
    gossip.count = static_cast<std::uint32_t>(entries.size());
    scratch.insert(scratch.end(), entries.begin(), entries.end());
    s->emit(gossip);
    return;
  }
  auto batch = mcache_arena_.make();
  for (const McacheEntry& e : entries) batch.push_back(e);
  send_gossip(from, to, std::move(batch));
}

void System::break_partnership(net::NodeId a, net::NodeId b) {
  if (TickEffectSink* s = tick_effect_sink()) {
    s->emit(EffectBreak{b});
    return;
  }
  transport_.count_only(net::MessageKind::kPartnership);
  if (Peer* pa = peer(a); pa != nullptr && pa->alive()) pa->on_partner_left(b);
  if (Peer* pb = peer(b); pb != nullptr && pb->alive()) pb->on_partner_left(a);
}

void System::report(const logging::Report& r) {
  if (TickEffectSink* s = tick_effect_sink()) {
    std::vector<logging::Report>& scratch = shard_scratch_[s->shard].reports;
    const auto index = static_cast<std::uint32_t>(scratch.size());
    scratch.push_back(r);
    s->emit(EffectReport{index});
    return;
  }
  transport_.count_only(net::MessageKind::kReport);
  if (log_ != nullptr) log_->submit(r);
}

void System::notify(net::NodeId id, SessionEvent event) {
  if (TickEffectSink* s = tick_effect_sink()) {
    s->emit(EffectNotify{event});
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

  // Freeze the tick-start view: peer order, liveness, and flow slots.
  tick_order_.assign(live_.begin(), live_.end());
  alive_snapshot_.assign(peers_.size(), 0);
  for (ShardScratch& s : shard_scratch_) {
    s.positions.clear();
    s.bm_bases.clear();
    s.bm_targets.clear();
    s.gossip_entries.clear();
    s.reports.clear();
  }
  for (std::uint32_t pos = 0;
       pos < static_cast<std::uint32_t>(tick_order_.size()); ++pos) {
    const net::NodeId id = tick_order_[pos];
    alive_snapshot_[id] = 1;
    shard_scratch_[shard_of(id)].positions.push_back(pos);
  }
  if (inflow_.size() < peers_.size() * k_streams) {
    inflow_.resize(peers_.size() * k_streams);
  }
  effects_.reset(workers_.shard_count());

  workers_.run([this, dt](std::size_t s) { flow_rates(s, dt); });
  workers_.run([this, dt](std::size_t s) { flow_apply(s, dt); });
  in_protocol_phase_ = true;
  workers_.run([this, t](std::size_t s) { protocol_phase(s, t); });
  in_protocol_phase_ = false;

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
    if (parent == nullptr || !parent->alive()) continue;
    auto& links = parent->out_links();
    if (links.empty()) continue;

    // Demands per outgoing sub-stream connection (blocks/s), from heads
    // frozen at tick start — no phase writes them until F2.
    demands.assign(links.size(), units::BlockRate::zero());
    bool any_stale = false;
    for (std::size_t k = 0; k < links.size(); ++k) {
      const OutLink& l = links[k];
      const Peer* child = peer(l.child);
      if (child == nullptr || !child->alive() ||
          child->parent_of(l.substream) != id) {
        any_stale = true;
        continue;  // demand stays 0; link compacted below
      }
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
    if (config_.allocation == AllocationPolicy::kMaxMinFair) {
      scratch.active.resize(links.size());
      net::max_min_fair(capacity, demands, rates, scratch.active);
    } else {
      net::equal_share(capacity, demands, rates);
    }

    // Publish one InFlow slot per granted link.  Exactly one parent can
    // pass the parent_of() check for a given (child, sub-stream), so each
    // slot has a unique writer this phase.
    for (std::size_t k = 0; k < links.size(); ++k) {
      if (rates[k] <= units::BlockRate::zero()) continue;
      const OutLink& l = links[k];
      const Peer* child = peer(l.child);
      if (child == nullptr || !child->alive() ||
          child->parent_of(l.substream) != id) {
        continue;  // stale link: never granted a slot
      }
      InFlow& slot = inflow_[l.child * k_streams + l.substream.index()];
      slot.rate = rates[k];
      slot.parent_head = parent->head(l.substream);
      slot.parent = id;
      slot.pushed = 0;
      slot.stamp = tick_stamp_;
    }

    if (any_stale) {
      std::erase_if(links, [this, id](const OutLink& l) {
        const Peer* child = peer(l.child);
        return child == nullptr || !child->alive() ||
               child->parent_of(l.substream) != id;
      });
    }
  }
}

void System::flow_apply(std::size_t shard, Duration dt) {
  const units::Bytes block_bytes = params_.block_bytes();
  const auto k_streams = static_cast<std::size_t>(params_.substream_count);
  ShardScratch& scratch = shard_scratch_[shard];
  std::uint64_t& blocks = scratch.blocks_transferred;

  for (const std::uint32_t pos : scratch.positions) {
    const net::NodeId id = tick_order_[pos];
    Peer* child = peer(id);
    if (child == nullptr || !child->alive()) continue;
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
      // and the (deployment-wide) window size, so the child computes it
      // from its own CacheBuffer — no cross-shard read.
      const SeqNum oldest = child->cache().oldest(parent_head);
      while (credit >= 1.0 && child->head(j) < parent_head) {
        SeqNum next = child->head(j) + BlockCount(1);
        if (next < oldest) {
          // The child fell behind the parent's cache window: the missing
          // range is gone (pushed out by playout) and must be skipped.
          child->handle_window_gap(j, oldest);
          next = child->head(j) + BlockCount(1);
          if (next > parent_head) break;
        }
        child->sync().insert(j, next);
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
  TickEffectSink sink;
  sink.mailbox = &effects_;
  sink.shard = shard;
  set_tick_effect_sink(&sink);
  for (const std::uint32_t pos : shard_scratch_[shard].positions) {
    const net::NodeId id = tick_order_[pos];
    Peer* p = peer(id);
    if (p == nullptr || !p->alive()) continue;
    // Parent-side roll-up of what F2 moved on our out-links: children
    // recorded per-slot push counts; we own our bytes_up tally.
    for (const OutLink& l : p->out_links()) {
      const InFlow& slot = inflow_[l.child * k_streams + l.substream.index()];
      if (slot.stamp != tick_stamp_ || slot.parent != id) continue;
      for (std::uint32_t n = 0; n < slot.pushed; ++n) {
        p->add_bytes_up(block_bytes);
      }
    }
    sink.pos = pos;
    p->on_tick(t);
  }
  set_tick_effect_sink(nullptr);
}

void System::flush_effects() {
  effects_.drain(
      tick_order_.size(),
      [this](std::uint32_t pos) { return shard_of(tick_order_[pos]); },
      [this](std::uint32_t pos, TickEffect&& e) {
        apply_effect(tick_order_[pos], std::move(e));
      });
}

void System::apply_effect(net::NodeId from, TickEffect&& effect) {
  assert(tick_effect_sink() == nullptr && "flush must run serially");
  std::visit(
      [this, from](auto&& e) {
        using E = std::decay_t<decltype(e)>;
        if constexpr (std::is_same_v<E, EffectBmPush>) {
          // Expanded in partner order from the sender's snapshot, so a
          // flush effect that edits partner lists (a silence break, the
          // dead-partner cleanup below) cannot reshape this broadcast.
          const ShardScratch& scratch = shard_scratch_[shard_of(from)];
          const BufferMap& base = scratch.bm_bases[e.base];
          for (std::uint32_t k = e.first; k < e.first + e.count; ++k) {
            const ShardScratch::BmTarget& t = scratch.bm_targets[k];
            deliver_bm(from, t.to, base, t.sub_bits);
          }
        } else if constexpr (std::is_same_v<E, EffectSubscribe>) {
          // Stale intent: an earlier flush effect (say, a broken
          // partnership) made the sender reselect this sub-stream's parent
          // mid-flush; applying the old subscription would plant a serving
          // link the child no longer points at.
          const Peer* p = peer(from);
          if (p != nullptr && p->parent_of(e.substream) == e.parent) {
            subscribe(from, e.parent, e.substream);
          }
        } else if constexpr (std::is_same_v<E, EffectUnsubscribe>) {
          // Mirror guard: if a mid-flush reselect re-subscribed the sender
          // to this same parent, the deferred unsubscribe must not tear the
          // fresh link down.
          const Peer* p = peer(from);
          if (p == nullptr || p->parent_of(e.substream) != e.parent) {
            unsubscribe(from, e.parent, e.substream);
          }
        } else if constexpr (std::is_same_v<E, EffectBreak>) {
          break_partnership(from, e.other);
        } else if constexpr (std::is_same_v<E, EffectGossip>) {
          const ShardScratch& scratch = shard_scratch_[shard_of(from)];
          send_gossip_entries(
              from, e.to,
              std::span<const McacheEntry>(scratch.gossip_entries)
                  .subspan(e.first, e.count));
        } else if constexpr (std::is_same_v<E, EffectAttempt>) {
          attempt_partnership(from, e.to);
        } else if constexpr (std::is_same_v<E, EffectBootstrap>) {
          request_bootstrap_list(from);
        } else if constexpr (std::is_same_v<E, EffectReport>) {
          report(shard_scratch_[shard_of(from)].reports[e.index]);
        } else {
          static_assert(std::is_same_v<E, EffectNotify>);
          notify(from, e.event);
        }
      },
      std::move(effect));
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
    if (p == nullptr || !p->alive()) continue;
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
