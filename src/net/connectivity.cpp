#include "net/connectivity.h"

namespace coolstream::net {

std::string_view to_string(ConnectionType type) noexcept {
  switch (type) {
    case ConnectionType::kDirect:
      return "direct";
    case ConnectionType::kUpnp:
      return "upnp";
    case ConnectionType::kNat:
      return "nat";
    case ConnectionType::kFirewall:
      return "firewall";
  }
  return "unknown";
}

ConnectionType classify_observed(bool private_address, bool had_incoming,
                                 bool had_outgoing) noexcept {
  (void)had_outgoing;  // every active peer has outgoing partners
  if (private_address) {
    return had_incoming ? ConnectionType::kUpnp : ConnectionType::kNat;
  }
  return had_incoming ? ConnectionType::kDirect : ConnectionType::kFirewall;
}

}  // namespace coolstream::net
