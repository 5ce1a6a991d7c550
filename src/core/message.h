// Control-plane messages as plain records.
//
// Every control message one peer sends another (§III-B, §III-C) is one
// trivially copyable Message: its kind, its endpoints, a sub-stream and up
// to four inline mCache entries.  Five kinds travel with latency: the
// boot-strap list request, the partnership request and its confirm or
// reject, and mCache gossip.  Each copy in flight is carried whole by its
// delivery event, a [System*, Message] callback stored in place in the
// event queue's record (sim/event_queue.h).  Three kinds act at once:
// sub-stream subscribe and unsubscribe, and a partnership break.  Every
// kind is handled in one switch (System::deliver); during the sharded
// protocol phase every kind waits in its sender's shard outbox, one
// record each, until the flush (System::flush_effects).  net::MessageKind
// stays the accounting category.
#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "core/mcache.h"
#include "core/stream_types.h"
#include "net/types.h"

namespace coolstream::core {

struct Message {
  enum class Kind : unsigned char {
    // Delayed by the transport.
    kBootstrapRequest = 0,  ///< the list is sampled when it arrives
    kPartnershipRequest = 1,
    kPartnershipConfirm = 2,
    kPartnershipReject = 3,
    kGossip = 4,
    // Zero latency: delivered as soon as they are sent.
    kSubscribe = 5,    ///< child `from` subscribes `substream` at `to`
    kUnsubscribe = 6,
    kBreak = 7,  ///< both ends drop the partnership
  };

  /// A gossip push carries up to 3 sampled entries plus the sender's own.
  static constexpr std::size_t kMaxEntries = 4;

  std::array<McacheEntry, kMaxEntries> entries{};  ///< gossip payload
  net::NodeId from = net::kInvalidNode;
  net::NodeId to = net::kInvalidNode;
  SubstreamId substream{};  ///< the subscription kinds' sub-stream
  Kind kind = Kind::kGossip;
  std::uint8_t count = 0;  ///< entries in use

  std::span<const McacheEntry> payload() const noexcept {
    return {entries.data(), count};
  }
  /// Whether the transport delays (and may drop) this kind.
  bool delayed() const noexcept { return kind <= Kind::kGossip; }
};

}  // namespace coolstream::core
