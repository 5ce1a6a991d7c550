// Tree-based overlay multicast baseline (§II: "tree-based overlay
// multicast" and "multi-trees [13][14]" — End System Multicast / Overcast
// with one stripe, SplitStream / CoopNet with several).
//
// The paper contrasts Coolstreaming's data-driven mesh against systems
// that explicitly build and maintain multicast trees.  The stream is
// striped into TreeParams::stripes sub-streams, each distributed over its
// own tree:
//   * degree-constrained join (a node can father floor(capacity / (R/K))
//     children in a stripe; only publicly reachable nodes can be
//     interior),
//   * depth-greedy parent choice (attach as close to the root as a free
//     slot allows),
//   * interior-node-disjointness: a node is interior only in its primary
//     stripe, so one departure breaks at most one stripe's subtree while
//     the others keep flowing,
//   * subtree orphaning on departure: children of the departed node stall
//     in that stripe until they re-join through the root after a repair
//     delay.
// With one stripe this is the single tree.
//
// Data transfer uses the same fluid model as the mesh (uplink shared
// across children), and the same continuity-index definition, so the
// tree-vs-mesh bench compares like with like.
#pragma once

#include <cstdint>
#include <vector>

#include "net/types.h"
#include "sim/simulation.h"

namespace coolstream::baseline {

// Stream and data-plane constants of the tree baseline.  They are the
// mesh's defaults (core::Params, kMediaReadyBufferSeconds, T_p), so the
// tree-vs-mesh bench compares like with like.
inline constexpr double kStreamRateBps = 768'000.0;
inline constexpr double kBlockRate = 8.0;            ///< blocks per second
inline constexpr double kJoinDelay = 1.0;            ///< join control latency, s
inline constexpr double kMediaReadySeconds = 10.0;   ///< buffer before playback
inline constexpr double kStartOffsetSeconds = 15.0;  ///< join behind the root
inline constexpr double kTickSeconds = 0.5;          ///< fluid step, s
inline constexpr double kMaxCatchupFactor = 4.0;

/// Tree protocol knobs.
struct TreeParams {
  double root_capacity_bps = 100e6;  ///< split evenly across the stripes
  double repair_delay = 3.0;         ///< orphan -> rejoin latency, s
  int stripes = 1;                   ///< trees, one per sub-stream (K)
};

/// Per-node statistics mirrored on core::PeerStats.
struct TreeNodeStats {
  std::uint64_t blocks_due = 0;
  std::uint64_t blocks_on_time = 0;
  std::uint32_t reattachments = 0;  ///< per-stripe re-joins after orphaning
};

/// Striped overlay multicast; one stripe is the single tree.
class TreeOverlay {
 public:
  TreeOverlay(sim::Simulation& simulation, TreeParams params);
  ~TreeOverlay();

  TreeOverlay(const TreeOverlay&) = delete;
  TreeOverlay& operator=(const TreeOverlay&) = delete;

  /// Creates the root, which serves every stripe, and starts the tick.
  /// Call once.
  void start();

  /// Adds a viewer.  `reachable` nodes become interior in their primary
  /// stripe (assigned round-robin), leaves everywhere else; others are
  /// leaves in every tree — the NAT/firewall constraint.
  net::NodeId join(double upload_capacity_bps, bool reachable);

  /// Removes a node; its primary-stripe subtree re-joins after the repair
  /// delay (other stripes lose only a leaf).
  void leave(net::NodeId id);

  bool is_live(net::NodeId id) const noexcept;
  std::size_t live_count() const noexcept { return live_count_; }

  /// Stripe-tree depth of a node (root = 0); -1 while detached.
  int depth(net::NodeId id, int stripe) const;

  /// Aggregate continuity over every block deadline that has passed.
  double average_continuity() const noexcept;
  /// Per-node stats (valid for ids returned by join()).
  const TreeNodeStats& stats(net::NodeId id) const;
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
    TreeNodeStats stats;
  };

  void tick();
  /// Finds the shallowest live node with a free slot in `stripe`;
  /// returns kInvalidNode when that tree is full.
  net::NodeId find_parent(int stripe);
  /// Attaches `id` in `stripe` if a slot is free, else retries after the
  /// repair delay.
  void attach_or_retry(net::NodeId id, int stripe);
  void attach(net::NodeId child, net::NodeId parent, int stripe);
  void schedule_rejoin(net::NodeId id, int stripe);
  int max_children_of(const Node& n, int stripe) const noexcept;
  double stripe_rate_bps() const noexcept;
  double stripe_block_rate() const noexcept;
  double root_stripe_head() const noexcept;

  sim::Simulation& sim_;
  TreeParams params_;
  std::vector<Node> nodes_;
  net::NodeId root_ = net::kInvalidNode;
  std::size_t live_count_ = 0;
  int next_primary_ = 0;
  sim::EventHandle tick_handle_;
  bool started_ = false;
};

}  // namespace coolstream::baseline
