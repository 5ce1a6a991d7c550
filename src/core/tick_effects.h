// Deferred cross-peer interactions for the sharded protocol tick.
//
// During the parallel protocol phase a peer may only mutate *its own*
// state; everything it would have done to another peer through the System
// plumbing (broadcast its buffer map, send a Message, file a report,
// surface a session milestone) is captured as one of the typed effects
// below and queued in its shard's lane of the mailbox
// (sim/shard_mailbox.h), at its tick position.  After the barrier the
// System drains the mailbox in canonical sender order and applies each
// effect through the exact same plumbing code path, so a 1-shard run and
// an N-shard run replay the identical effect sequence, which is what makes
// their state hashes bit-identical.
//
// Routing is transparent to Peer code: System's plumbing methods check
// whether phase P is running and either defer or execute directly (serial
// contexts: transport callbacks, workload events, the flush itself).
// Every effect is a few words: its payload (a posted message's header and
// gossip entries, a BM broadcast's lanes and partner ids, a report) sits
// in the sender's shard scratch and the effect holds its index.  The periodic
// BM exchange is the one bulk effect: a peer's whole once-a-second
// broadcast is one EffectBmPush that the flush expands into one delivery
// per partner, in partner order.
#pragma once

#include <cstdint>
#include <variant>

namespace coolstream::core {

enum class SessionEvent : unsigned char;  // defined in core/system.h

/// Periodic BM broadcast to every partner, snapshotted when the sender
/// ran: its K head lanes start at `base` and its partner ids are
/// [first, first + count), both indexing the sender's shard scratch
/// (System::broadcast_bm).  The flush pushes the lanes to one partner at
/// a time, with zero latency.
struct EffectBmPush {
  std::uint32_t base = 0;
  std::uint32_t first = 0;
  std::uint32_t count = 0;
};

/// A Message the sender posted: header `index` of its shard's outbox, from
/// which the flush rebuilds the record.
struct EffectMessage {
  std::uint32_t index = 0;
};

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
    std::variant<EffectBmPush, EffectMessage, EffectReport, EffectNotify>;

}  // namespace coolstream::core
