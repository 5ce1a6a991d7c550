// User population model: connection-type mixture and per-type upload
// capacity distributions.
//
// Calibrated to §V-B: "30% or so peer nodes in the overlay, i.e., nodes
// under UPnP and direct-connect, contribute more than 80% of the upload
// bandwidth."  Direct/UPnP peers sit on campus/Ethernet or full ADSL
// uplinks; NAT and firewall peers are dominated by asymmetric residential
// uplinks of the mid-2000s (≈0.25–1 Mbps up).  Capacities are lognormal
// per type — heavy-tailed enough that a handful of Ethernet peers carry a
// disproportionate share, as in Fig. 3b.
#pragma once

#include <array>

#include "core/peer.h"
#include "net/connectivity.h"
#include "sim/rng.h"

namespace coolstream::workload {

/// Parameters of one connection-type class.
struct TypeProfile {
  double share = 0.25;        ///< fraction of the population
  double capacity_mu = 13.0;  ///< lognormal mu of upload bps
  double capacity_sigma = 0.7;
  double min_bps = 64'000.0;  ///< floor (dial-up-ish)
  double max_bps = 20e6;      ///< cap (no peer uploads more than this)
};

/// Population mixture; indexable by net::ConnectionType.
struct UserTypeModel {
  std::array<TypeProfile, net::kConnectionTypeCount> profiles;

  /// The paper-calibrated default mixture.
  static UserTypeModel coolstreaming_2006();

  /// Draws a connection type according to the shares.
  net::ConnectionType draw_type(sim::Rng& rng) const;

  /// Draws an upload capacity for a given type.
  double draw_capacity(net::ConnectionType type, sim::Rng& rng) const;

  /// Builds a full viewer spec: type, matching address class, capacity.
  core::PeerSpec make_spec(std::uint64_t user_id, sim::Rng& rng) const;

  /// Expected upload capacity of the mixture (Monte-Carlo-free closed
  /// form; lognormal mean truncated bounds ignored).
  double mean_capacity_bps() const;
};

}  // namespace coolstream::workload
