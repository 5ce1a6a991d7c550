// Boot-strap node (§III-B, §IV-A).
//
// "A newly joined node contacts a boot-strap node for a list of peer nodes
// and stores that in its own mCache."  The boot-strap node tracks currently
// active nodes (joins and leaves pass through it in our deployment, as the
// web portal did in the original system) and answers with a uniformly
// random subset.  During a flash crowd most active nodes are new arrivals,
// so the returned lists are dominated by freshly joined peers — the
// mCache-pollution effect of §V-C needs no special casing.
#pragma once

#include <vector>

#include "core/mcache.h"
#include "core/stream_types.h"
#include "net/types.h"
#include "sim/rng.h"

namespace coolstream::core {

/// Registry of active nodes; answers join-time list requests.
class BootstrapServer {
 public:
  /// Registers a node as active.  Idempotent.
  void add(net::NodeId id, Tick joined_at);

  /// Unregisters a node (leave/crash detected by the portal).
  void remove(net::NodeId id);

  /// Uniformly random subset of up to `k` active nodes, excluding
  /// `requester`, as mCache entries stamped with their join times.  The
  /// registry does not know address classes: every entry says reachable.
  std::vector<McacheEntry> random_list(std::size_t k, net::NodeId requester,
                                       sim::Rng& rng) const;

  /// random_list into caller-owned buffers (cleared first): identical RNG
  /// draws, allocation-free once capacities are warm.
  void random_list_into(std::size_t k, net::NodeId requester, sim::Rng& rng,
                        std::vector<std::size_t>& idx_scratch,
                        std::vector<McacheEntry>& out) const;

  std::size_t active_count() const noexcept { return order_.size(); }
  bool contains(net::NodeId id) const noexcept;

  /// Join time of an active node; Tick(-1) when not active.
  Tick joined_at(net::NodeId id) const noexcept;

 private:
  struct ActiveNode {
    net::NodeId id;
    Tick joined_at;
  };
  // Dense vector + index map for O(1) add/remove and O(k) sampling.
  std::vector<ActiveNode> order_;
  std::vector<std::size_t> index_;  // NodeId -> position+1 (0 = absent)
};

}  // namespace coolstream::core
