// Multi-tree overlay multicast baseline (§II: "multi-trees [13][14]" —
// SplitStream / CoopNet style).
//
// The stream is striped into kStripes sub-streams, each distributed over
// its own tree.  Every node joins all trees; it is *interior* (can father
// children) only in its primary stripe — SplitStream's
// interior-node-disjointness — so one departure breaks at most one
// stripe's subtree while the others keep flowing.  Unreachable
// (NAT/firewall) nodes are leaves in every tree.
//
// Shares the fluid data plane and playout/continuity conventions of
// TreeOverlay so the three-way mesh / single-tree / multi-tree comparison
// is apples to apples.
#pragma once

#include <cstdint>
#include <vector>

#include "net/types.h"
#include "sim/simulation.h"

namespace coolstream::baseline {

/// Trees, one per sub-stream (the mesh's K).
inline constexpr int kStripes = 4;

/// Multi-tree protocol knobs; the stream and data-plane constants are
/// TreeOverlay's (baseline/tree_overlay.h).
struct MultiTreeParams {
  double root_capacity_bps = 100e6;  ///< split evenly across the stripes
  double repair_delay = 3.0;         ///< orphan -> rejoin latency, s
};

/// Per-node statistics (same notions as TreeNodeStats).
struct MultiTreeNodeStats {
  std::uint64_t blocks_due = 0;
  std::uint64_t blocks_on_time = 0;
  std::uint32_t reattachments = 0;  ///< per-stripe re-joins after orphaning
};

/// SplitStream-style striped overlay multicast.
class MultiTreeOverlay {
 public:
  MultiTreeOverlay(sim::Simulation& simulation, MultiTreeParams params);
  ~MultiTreeOverlay();

  MultiTreeOverlay(const MultiTreeOverlay&) = delete;
  MultiTreeOverlay& operator=(const MultiTreeOverlay&) = delete;

  /// Creates the per-stripe roots and starts the tick.
  void start();

  /// Adds a viewer; `reachable` nodes become interior in their primary
  /// stripe (assigned round-robin), leaves everywhere else.
  net::NodeId join(double upload_capacity_bps, bool reachable);

  /// Removes a node; its primary-stripe subtree re-joins after the repair
  /// delay (other stripes lose only a leaf).
  void leave(net::NodeId id);

  bool is_live(net::NodeId id) const noexcept;
  std::size_t live_count() const noexcept { return live_count_; }

  /// Stripe-tree depth of a node (root = 0); -1 while detached.
  int depth(net::NodeId id, int stripe) const;

  double average_continuity() const noexcept;
  const MultiTreeNodeStats& stats(net::NodeId id) const;
  /// Fraction of (live node, stripe) pairs currently attached.
  double attached_fraction() const noexcept;

 private:
  struct Node {
    bool live = false;
    bool reachable = true;
    bool playing = false;
    int primary = 0;  ///< stripe in which this node may be interior
    double capacity_bps = 0.0;
    std::vector<net::NodeId> parent;             ///< per stripe
    std::vector<std::vector<net::NodeId>> kids;  ///< children per stripe
    std::vector<double> head;                    ///< stripe blocks received
    double play_start = -1.0;   ///< global block where playback begins
    double play_head_time = -1.0;
    double last_counted = -1.0;  ///< last global deadline charged
    MultiTreeNodeStats stats;
  };

  void tick();
  net::NodeId find_parent(int stripe);
  void attach(net::NodeId child, net::NodeId parent, int stripe);
  void schedule_rejoin(net::NodeId id, int stripe);
  int max_children_of(const Node& n, int stripe) const noexcept;
  double root_stripe_head() const noexcept;

  sim::Simulation& sim_;
  MultiTreeParams params_;
  std::vector<Node> nodes_;
  net::NodeId root_ = net::kInvalidNode;  ///< one root node serves all stripes
  std::size_t live_count_ = 0;
  int next_primary_ = 0;
  sim::EventHandle tick_handle_;
  bool started_ = false;
};

}  // namespace coolstream::baseline
