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
// itself).  The periodic BM exchange is the one bulk effect: a peer's
// whole once-a-second broadcast is one EffectBmPush whose base map and
// per-partner subscription words sit in the sender's shard scratch, and
// the flush expands it into one delivery per partner, in partner order.
#pragma once

#include <array>
#include <cstdint>
#include <variant>

#include "core/mcache.h"
#include "logging/reports.h"
#include "net/types.h"
#include "sim/shard_mailbox.h"

namespace coolstream::core {

enum class SessionEvent : unsigned char;  // defined in core/system.h

/// Periodic BM broadcast to every partner, snapshotted when the sender
/// ran: base map `base` and targets [first, first + count) index the
/// sender's shard scratch (System::broadcast_bm).  Delivered with zero
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

/// Gossip push: up to 3 sampled mCache entries + the sender's own entry,
/// carried inline (the MessageArena is main-thread-only; the System
/// materializes an arena batch from these at the flush).
struct EffectGossip {
  net::NodeId to = net::kInvalidNode;
  std::uint32_t count = 0;
  std::array<McacheEntry, 4> entries{};
};

/// Partnership attempt toward `to` (emitter is the initiator).
struct EffectAttempt {
  net::NodeId to = net::kInvalidNode;
};

/// Boot-strap list request round trip for the emitter.
struct EffectBootstrap {};

/// Status/activity report for the log server.
struct EffectReport {
  logging::Report report;
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

// census: worker-confined effect-capture pointer — thread_local, set only by the owning worker around the parallel phase, null in every serial context
inline thread_local TickEffectSink* g_tick_effect_sink = nullptr;  // lint:allow(mutable-global)

/// The current worker's sink, or null in any serial context.
inline TickEffectSink* tick_effect_sink() noexcept {
  return g_tick_effect_sink;
}

inline void set_tick_effect_sink(TickEffectSink* sink) noexcept {
  g_tick_effect_sink = sink;
}

}  // namespace coolstream::core
