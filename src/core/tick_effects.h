// Deferred cross-peer interactions for the sharded protocol tick.
//
// During the parallel protocol phase a peer may only mutate *its own*
// state; everything it would have done to another peer through the System
// plumbing (publish its buffer map, send a Message, file a report,
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
// gossip entries, an exchanged buffer map's lanes, a report) sits in the
// sender's shard scratch and the effect holds its index.  The periodic BM
// exchange is one effect per sender: the flush publishes the sender's map
// as its one Advertisement (core/partner_table.h), which every partner
// reads, at the sender's canonical position.
#pragma once

#include <cstdint>
#include <variant>

namespace coolstream::core {

enum class SessionEvent : unsigned char;  // defined in core/system.h

/// Periodic BM exchange with every partner, snapshotted when the sender
/// ran: its K head lanes start at index `lanes` of the sender's shard
/// scratch (System::exchange_bm), and it had `partners` partners, each
/// counted as one BM message.  The flush publishes the lanes, with zero
/// latency, and drops the partners that have left.
struct EffectBmPublish {
  std::uint32_t lanes = 0;
  std::uint32_t partners = 0;
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
    std::variant<EffectBmPublish, EffectMessage, EffectReport, EffectNotify>;

}  // namespace coolstream::core
