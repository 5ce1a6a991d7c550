// Connection-type semantics: who can establish a TCP connection with whom.
//
// The paper (§V-B) distinguishes four user types by address class and
// observed partnership directions:
//   Direct-connect : public address, incoming + outgoing partners
//   UPnP           : private address behind a UPnP gateway (acquires a
//                    public mapping), incoming + outgoing partners
//   NAT            : private address, outgoing partners only
//   Firewall       : public address, outgoing partners only
//
// Ground truth in the simulator: Direct and UPnP nodes accept incoming
// connections; NAT and Firewall nodes can only initiate.  Once a
// partnership exists (a TCP connection in either direction), data can flow
// both ways, so NAT/firewall peers can still act as parents — exactly the
// behaviour the paper highlights.
#pragma once

#include <string_view>

namespace coolstream::net {

/// Ground-truth connectivity class of a host.
enum class ConnectionType : unsigned char {
  kDirect = 0,   ///< public address, unrestricted
  kUpnp = 1,     ///< private address with UPnP port mapping
  kNat = 2,      ///< private address, no inbound connectivity
  kFirewall = 3, ///< public address, inbound filtered
};

inline constexpr int kConnectionTypeCount = 4;

/// Human-readable name ("direct", "upnp", "nat", "firewall").
std::string_view to_string(ConnectionType type) noexcept;

/// True when a host of type `callee` can accept an inbound TCP connection
/// (from anyone).  Direct and UPnP hosts are publicly reachable; any host
/// can initiate.  (No NAT hole punching existed in Coolstreaming.)
constexpr bool accepts_inbound(ConnectionType callee) noexcept {
  return callee == ConnectionType::kDirect || callee == ConnectionType::kUpnp;
}

/// True when the host uses a private (RFC 1918) address.  UPnP hosts sit on
/// private addresses but acquire a public mapping from the gateway; the
/// paper notes peers are aware of the UPnP device, so measurement
/// classification can tell them apart from plain NAT.
constexpr bool uses_private_address(ConnectionType type) noexcept {
  return type == ConnectionType::kUpnp || type == ConnectionType::kNat;
}

/// Connection-type inference as performed by the paper's measurement
/// pipeline: classify from the address class and whether the peer ever had
/// incoming / outgoing partners during its lifetime.  This is the
/// *observed* type; with short sessions it can disagree with ground truth
/// (a reachable peer that never happened to receive an inbound partnership
/// looks like a firewall/NAT peer), which the paper acknowledges
/// ("errors can occur").
ConnectionType classify_observed(bool private_address, bool had_incoming,
                                 bool had_outgoing) noexcept;

}  // namespace coolstream::net
