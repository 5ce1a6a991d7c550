#include "net/latency.h"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "sim/rng.h"

namespace coolstream::net {

units::Duration LatencyModel::delay(NodeId a, NodeId b) const noexcept {
  const NodeId lo = std::min(a, b);
  const NodeId hi = std::max(a, b);
  // Hash (seed, lo, hi) into two independent uniforms via splitmix64, then
  // Box-Muller into a lognormal variate.  No state, fully deterministic.
  std::uint64_t state =
      seed_ ^ (static_cast<std::uint64_t>(lo) << 32) ^ hi;
  const std::uint64_t u64a = sim::splitmix64_next(state);
  const std::uint64_t u64b = sim::splitmix64_next(state);
  const double u1 =
      (static_cast<double>(u64a >> 11) + 0.5) * 0x1.0p-53;  // (0,1)
  const double u2 = static_cast<double>(u64b >> 11) * 0x1.0p-53;  // [0,1)
  const double z = std::sqrt(-2.0 * std::log(u1)) *
                   std::cos(2.0 * std::numbers::pi * u2);
  const double d = std::exp(kLatencyMu + kLatencySigma * z);
  return units::Duration(std::clamp(d, kMinDelay, kMaxDelay));
}

}  // namespace coolstream::net
