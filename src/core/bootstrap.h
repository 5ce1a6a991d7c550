// Boot-strap node (§III-B, §IV-A).
//
// "A newly joined node contacts a boot-strap node for a list of peer nodes
// and stores that in its own mCache."  Joins and leaves pass through the
// boot-strap node in our deployment, as they did through the web portal in
// the original system, so the active set it answers from is exactly the
// System's live list: the node keeps no registry of its own and a reply is
// a uniformly random sample of that list.  During a flash crowd most
// active nodes are new arrivals, so the returned lists are dominated by
// freshly joined peers — the mCache-pollution effect of §V-C needs no
// special casing.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "net/types.h"
#include "sim/rng.h"

namespace coolstream::core {

/// Uniformly random subset of up to `k` ids of `active`, excluding
/// `requester`, into `out_ids` (cleared first).  Draws k + 1 positions so
/// the requester can be dropped without bias, and stops at k.  Allocation-
/// free once the scratch capacities are warm.
void sample_bootstrap_list(std::span<const net::NodeId> active, std::size_t k,
                           net::NodeId requester, sim::Rng& rng,
                           std::vector<std::size_t>& idx_scratch,
                           std::vector<net::NodeId>& out_ids);

}  // namespace coolstream::core
