// Pairwise latency model.
//
// Control messages (gossip, buffer maps, subscription requests) experience
// a propagation delay drawn from a lognormal distribution whose parameters
// roughly match Internet RTT measurements of the mid-2000s (median ~80 ms,
// heavy right tail).  The latency of a pair is a deterministic function of
// (seed, min(a,b), max(a,b)): symmetric, stable across the run, and
// reproducible without storing an O(N^2) matrix.
#pragma once

#include <cstdint>

#include "core/units.h"
#include "net/types.h"

namespace coolstream::net {

/// The lognormal one-way-delay model, in seconds.
inline constexpr double kLatencyMu = -2.6;    ///< exp(-2.6) ~ 74 ms median
inline constexpr double kLatencySigma = 0.6;  ///< tail heaviness
inline constexpr double kMinDelay = 0.005;    ///< floor: 5 ms
inline constexpr double kMaxDelay = 1.5;  ///< cap (protects event horizon)

/// Deterministic pairwise latency oracle.
class LatencyModel {
 public:
  explicit LatencyModel(std::uint64_t seed) : seed_(seed) {}

  /// One-way delay between `a` and `b`.  Symmetric.
  units::Duration delay(NodeId a, NodeId b) const noexcept;

 private:
  std::uint64_t seed_;
};

}  // namespace coolstream::net
