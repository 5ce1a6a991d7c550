// Memory-layout audit layer (DESIGN.md §14).
//
// The ROADMAP's million-peer target requires per-peer protocol state to
// move from pointer-linked objects into ID-indexed struct-of-arrays slabs.
// Everything that will live in a slab must be trivially copyable (so slabs
// can be memcpy-grown and checkpointed), standard layout (so offsetof and
// column views are defined), heap-free, and padding-tight — and must STAY
// that way.  This header makes the contract a compile-time proof:
//
//   COOLSTREAM_LAYOUT_AUDIT(Type, exact_bytes)  proves trivially-copyable +
//       standard-layout + not over-aligned + sizeof == exact_bytes, so a
//       heap or virtual member, a new member, a reorder or a padding hole
//       fails the build rather than silently inflating every slab.
//
// core/peer.cpp includes this header, so every build of coolstream_core
// checks the audits below, under whichever compiler builds it.
#pragma once

#include <cstddef>
#include <type_traits>

#include "core/mcache.h"
#include "core/message.h"
#include "core/params.h"
#include "core/partner_table.h"
#include "core/peer.h"
#include "core/tick_effects.h"
#include "logging/reports.h"
#include "net/address.h"

/// Proves the slab contract for `Type` and freezes its size.  Any size
/// drift must update `exact_bytes` in the same change, making layout cost
/// visible in review.
#define COOLSTREAM_LAYOUT_AUDIT(Type, exact_bytes)                           \
  static_assert(std::is_trivially_copyable_v<Type>,                          \
                #Type " must be trivially copyable (SoA slab contract: "     \
                      "no heap-owning or self-referential members)");        \
  static_assert(std::is_standard_layout_v<Type>,                             \
                #Type " must be standard layout (offsetof and column "      \
                      "views must be well-defined)");                        \
  static_assert(alignof(Type) <= alignof(std::max_align_t),                  \
                #Type " must not be over-aligned (slabs use the default "    \
                      "allocator alignment)");                               \
  static_assert(sizeof(Type) == (exact_bytes),                               \
                #Type " layout drifted from its audited " #exact_bytes       \
                      " bytes (padding regression or member change); "       \
                      "update the audit if the cost is accepted "            \
                      "(DESIGN.md §14)")

namespace coolstream {

COOLSTREAM_LAYOUT_AUDIT(core::PartnerRecord, 24);  // 8 + 8 + 4+1 + 3 tail
COOLSTREAM_LAYOUT_AUDIT(core::OutLink, 8);
COOLSTREAM_LAYOUT_AUDIT(core::McacheEntry, 16);  // 8 + 4+1 + 3 tail
COOLSTREAM_LAYOUT_AUDIT(core::PeerSpec, 24);
COOLSTREAM_LAYOUT_AUDIT(core::PeerStats, 96);  // hole-free: 7*8 + 10*4
COOLSTREAM_LAYOUT_AUDIT(core::PeerProtocolState, 272);
COOLSTREAM_LAYOUT_AUDIT(net::Ipv4Address, 4);
// One mailbox entry per deferred effect: payloads live in shard scratch.
COOLSTREAM_LAYOUT_AUDIT(core::TickEffect, 16);  // 12-byte largest + index
// Carried by every queued delivery (inside the event record's in-place
// callback, next to the System pointer: 88 bytes, which is
// sim::detail::InlineFn::kInlineSize) and by one outbox record per message
// posted in phase P.
COOLSTREAM_LAYOUT_AUDIT(core::Message, 80);  // 4*16 + 4+4+4+1+1 + 2 tail

// Transport message structs: the §V-A report payloads every peer emits.
// (ActivityReport and PartnerReport stay cold: they carry a string /
// vector by design and never enter a slab.)
COOLSTREAM_LAYOUT_AUDIT(logging::ReportHeader, 24);
COOLSTREAM_LAYOUT_AUDIT(logging::QosReport, 40);
COOLSTREAM_LAYOUT_AUDIT(logging::TrafficReport, 40);
COOLSTREAM_LAYOUT_AUDIT(logging::PartnerChange, 8);

}  // namespace coolstream

namespace coolstream::core::layout {

/// Default protocol parameters: the slot counts below track them.
inline constexpr Params kDefaultParams{};

/// Bytes of audited slab state one peer is provisioned for at default
/// Params: its protocol state (which contains its PeerSpec and PeerStats)
/// plus, per partner slot, one PartnerRecord and K buffer-map
/// lanes, one OutLink per sub-stream and one McacheEntry per mCache slot
/// (kMcacheSize).
inline constexpr std::size_t kBytesPerPeer =
    sizeof(PeerProtocolState) +
    (sizeof(PartnerRecord) +
     sizeof(SeqNum) *
         static_cast<std::size_t>(kDefaultParams.substream_count)) *
        static_cast<std::size_t>(kDefaultParams.max_partners) +
    sizeof(OutLink) *
        static_cast<std::size_t>(kDefaultParams.substream_count) +
    sizeof(McacheEntry) * kMcacheSize;

/// The budget gate.  The state is 1 712 bytes with K = 4 lanes per partner
/// slot and 16-byte mCache entries; the gate leaves 88 bytes of headroom
/// (~5 %), so another partner-slot or mCache field fails here unless
/// review renegotiates it.
static_assert(kBytesPerPeer <= 1800,
              "audited bytes/peer exceeds the 1 800-byte budget; shrink the "
              "hot state or renegotiate the gate (DESIGN.md §14)");

}  // namespace coolstream::core::layout
