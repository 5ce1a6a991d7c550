// Control-plane messages as plain records.
//
// Every message that travels with latency between peers (§III-B, §III-C):
// the boot-strap list request, the partnership request and its confirm or
// reject, and mCache gossip, is one trivially copyable Message: its kind,
// its endpoints and up to four inline mCache entries.  The System keeps
// in-flight records in a flat table and handles every kind in one switch
// (System::deliver); the event queue only carries a [System*, slot]
// callback.  net::MessageKind stays the accounting category.
#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "core/mcache.h"
#include "net/types.h"

namespace coolstream::core {

struct Message {
  enum class Kind : unsigned char {
    kBootstrapRequest = 0,  ///< the list is sampled when it arrives
    kPartnershipRequest = 1,
    kPartnershipConfirm = 2,
    kPartnershipReject = 3,
    kGossip = 4,
  };

  /// A gossip push carries up to 3 sampled entries plus the sender's own.
  static constexpr std::size_t kMaxEntries = 4;

  std::array<McacheEntry, kMaxEntries> entries{};  ///< gossip payload
  net::NodeId from = net::kInvalidNode;
  net::NodeId to = net::kInvalidNode;
  Kind kind = Kind::kGossip;
  std::uint8_t count = 0;  ///< entries in use

  std::span<const McacheEntry> payload() const noexcept {
    return {entries.data(), count};
  }
};

}  // namespace coolstream::core
