// Deferred cross-peer interactions for the sharded protocol tick.
//
// During the parallel protocol phase a peer may only mutate *its own*
// state; everything it would have done to another peer through the System
// plumbing (broadcast its buffer map, subscribe, break a partnership,
// gossip, file a report, ...) is captured as one of the typed effects
// below and queued in the per-shard mailbox (sim/shard_mailbox.h).  After
// the barrier the System drains the mailbox in canonical sender order and
// applies each effect through the exact same plumbing code path — so a
// 1-shard run and an N-shard run replay the identical effect sequence,
// which is what makes their state hashes bit-identical.
//
// Routing is transparent to Peer code: System's plumbing methods check the
// worker-local sink and either defer (parallel phase) or execute directly
// (serial contexts: transport callbacks, workload events, the flush
// itself).  Every effect is a few words: payloads that do not fit (a BM
// broadcast's base map and per-partner subscription words, gossip entries,
// a report) sit in the sender's shard scratch and the effect holds their
// index.  The periodic BM exchange is the one bulk effect: a peer's whole
// once-a-second broadcast is one EffectBmPush that the flush expands into
// one delivery per partner, in partner order.
#pragma once

#include <cstdint>
#include <variant>

#include "core/stream_types.h"
#include "net/types.h"
#include "sim/shard_mailbox.h"

namespace coolstream::core {

enum class SessionEvent : unsigned char;  // defined in core/system.h

/// Periodic BM broadcast to every partner, snapshotted when the sender
/// ran: its K head lanes start at `base` and its targets are
/// [first, first + count), both indexing the sender's shard scratch
/// (System::broadcast_bm).  Delivered with zero
/// latency at the flush, one target at a time.
struct EffectBmPush {
  std::uint32_t base = 0;
  std::uint32_t first = 0;
  std::uint32_t count = 0;
};

/// Sub-stream subscription to `parent` (child = the emitting peer).
struct EffectSubscribe {
  net::NodeId parent = net::kInvalidNode;
  SubstreamId substream{};
};

struct EffectUnsubscribe {
  net::NodeId parent = net::kInvalidNode;
  SubstreamId substream{};
};

/// Drop the partnership between the emitter and `other` (both notified).
struct EffectBreak {
  net::NodeId other = net::kInvalidNode;
};

/// Gossip push to `to`: entries [first, first + count) of the sender's
/// shard scratch, up to 3 sampled mCache entries + the sender's own,
/// copied into one Message record when the flush sends it.
struct EffectGossip {
  net::NodeId to = net::kInvalidNode;
  std::uint32_t first = 0;
  std::uint32_t count = 0;
};

/// Partnership attempt toward `to` (emitter is the initiator).
struct EffectAttempt {
  net::NodeId to = net::kInvalidNode;
};

/// Boot-strap list request round trip for the emitter.
struct EffectBootstrap {};

/// Status/activity report for the log server: entry `index` of the
/// sender's shard scratch.
struct EffectReport {
  std::uint32_t index = 0;
};

/// Session milestone for the workload observer.
struct EffectNotify {
  SessionEvent event;
};

using TickEffect =
    std::variant<EffectBmPush, EffectSubscribe, EffectUnsubscribe,
                 EffectBreak, EffectGossip, EffectAttempt, EffectBootstrap,
                 EffectReport, EffectNotify>;

/// One worker's handle on the mailbox: the lane it writes (its shard) and
/// the tick position of the peer currently being ticked.  The System sets
/// the position before each Peer::on_tick call.
struct TickEffectSink {
  sim::ShardMailbox<TickEffect>* mailbox = nullptr;
  std::size_t shard = 0;
  std::uint32_t pos = 0;

  void emit(TickEffect effect) { mailbox->push(shard, pos, std::move(effect)); }
};

inline thread_local TickEffectSink* g_tick_effect_sink = nullptr;  // lint:allow(mutable-global) thread_local: set only by the owning worker around the parallel phase, null in every serial context

/// The current worker's sink, or null in any serial context.
inline TickEffectSink* tick_effect_sink() noexcept {
  return g_tick_effect_sink;
}

inline void set_tick_effect_sink(TickEffectSink* sink) noexcept {
  g_tick_effect_sink = sink;
}

}  // namespace coolstream::core
