// Upload bandwidth allocation.
//
// Coolstreaming parents "always accept requests and simply push out all
// blocks of a sub-stream in need" (§IV-B): there is no admission control on
// upload capacity, so an overloaded parent's connections share its uplink.
// We model the uplink as the bottleneck (standard for residential access
// links of the era) and split capacity max-min fairly across active
// sub-stream connections: each connection demands at most the sub-stream
// rate R/K while the child is caught up, and more (catch-up) when behind.
//
// Capacity and demands are block rates (blocks/s) — the fluid data plane's
// currency — so a bits-vs-blocks mix-up cannot typecheck.
//
// With equal demands this degenerates to the paper's Eq. (5):
// r = D/(D+1) * R/K after a (D+1)-th child subscribes to a parent whose
// capacity was exactly D * R/K.
#pragma once

#include <span>

#include "core/units.h"

namespace coolstream::net {

using units::BlockRate;

/// Max-min fair allocation of `capacity` across positive `demands`,
/// written into `rates` (one per demand); rates sum to
/// min(capacity, sum(demands)) and zero-demand entries receive zero.  All
/// inputs must be non-negative.  `active` is caller-owned scratch with at
/// least demands.size() entries, so a warm caller never touches the heap.
void max_min_fair(BlockRate capacity, std::span<const BlockRate> demands,
                  std::span<BlockRate> rates, std::span<std::size_t> active);

}  // namespace coolstream::net
