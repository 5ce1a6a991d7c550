// Tree-based overlay multicast baseline (§II "tree-based overlay
// multicast", in the style of End System Multicast / Overcast).
//
// The paper contrasts Coolstreaming's data-driven mesh against systems
// that explicitly build and maintain a multicast tree.  This baseline
// implements a single-tree overlay with:
//   * degree-constrained join (a node can father floor(capacity / R)
//     children; only publicly reachable nodes can be interior),
//   * depth-greedy parent choice (attach as close to the root as a free
//     slot allows),
//   * subtree orphaning on departure: children of the departed node stall
//     until they re-join through the root after a repair delay.
//
// Data transfer uses the same fluid model as the mesh (uplink shared
// across children), and the same continuity-index definition, so the
// tree-vs-mesh bench compares like with like.
#pragma once

#include <cstdint>
#include <vector>

#include "net/connectivity.h"
#include "net/types.h"
#include "sim/simulation.h"

namespace coolstream::baseline {

// Stream and data-plane constants of both tree baselines.  They are the
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
  double root_capacity_bps = 100e6;
  double repair_delay = 3.0;  ///< orphan -> rejoin latency, s
};

/// Per-node statistics mirrored on core::PeerStats.
struct TreeNodeStats {
  std::uint64_t blocks_due = 0;
  std::uint64_t blocks_on_time = 0;
  std::uint32_t reattachments = 0;  ///< times re-joined after orphaning
};

/// Single-tree overlay multicast system.
class TreeOverlay {
 public:
  TreeOverlay(sim::Simulation& simulation, TreeParams params);
  ~TreeOverlay();

  TreeOverlay(const TreeOverlay&) = delete;
  TreeOverlay& operator=(const TreeOverlay&) = delete;

  /// Creates the root and starts the tick.  Call once.
  void start();

  /// Adds a viewer.  `reachable` nodes may become interior (father
  /// children); others are leaves forever — the NAT/firewall constraint.
  net::NodeId join(double upload_capacity_bps, bool reachable);

  /// Removes a node; its subtree is orphaned and re-joins after the
  /// repair delay.
  void leave(net::NodeId id);

  bool is_live(net::NodeId id) const noexcept;
  std::size_t live_count() const noexcept { return live_count_; }

  /// Depth of a node (root = 0); -1 while orphaned / not attached.
  int depth(net::NodeId id) const;

  /// Aggregate continuity over every block deadline that has passed.
  double average_continuity() const noexcept;
  /// Per-node stats (valid for ids returned by join()).
  const TreeNodeStats& stats(net::NodeId id) const;
  /// Fraction of ever-due nodes currently attached to the tree.
  double attached_fraction() const noexcept;
  double mean_depth() const noexcept;

 private:
  struct Node {
    bool live = false;
    bool reachable = true;
    bool playing = false;
    double capacity_bps = 0.0;
    net::NodeId parent = net::kInvalidNode;
    std::vector<net::NodeId> children;
    double head = -1.0;       ///< received stream position, blocks
    double play_start = -1.0;
    double play_head_time = -1.0;
    double last_counted = -1.0;  ///< last deadline accounted, blocks
    TreeNodeStats stats;
  };

  void tick();
  /// Finds the shallowest live interior-capable node with a spare slot;
  /// returns kInvalidNode when the tree is full.
  net::NodeId find_parent();
  void attach(net::NodeId child, net::NodeId parent);
  void orphan_subtree(net::NodeId id);
  void schedule_rejoin(net::NodeId id);
  int max_children_of(const Node& n) const noexcept;
  double root_head() const noexcept;

  sim::Simulation& sim_;
  TreeParams params_;
  std::vector<Node> nodes_;
  net::NodeId root_ = net::kInvalidNode;
  std::size_t live_count_ = 0;
  sim::EventHandle tick_handle_;
  bool started_ = false;
};

}  // namespace coolstream::baseline
