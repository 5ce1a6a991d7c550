#include "baseline/tree_overlay.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <deque>

namespace coolstream::baseline {

TreeOverlay::TreeOverlay(sim::Simulation& simulation, TreeParams params)
    : sim_(simulation), params_(params) {}

TreeOverlay::~TreeOverlay() { tick_handle_.cancel(); }

void TreeOverlay::start() {
  assert(!started_);
  started_ = true;
  Node root;
  root.live = true;
  root.reachable = true;
  root.capacity_bps = params_.root_capacity_bps;
  root.head = 0.0;
  root_ = 0;
  nodes_.push_back(std::move(root));
  live_count_ = 1;
  tick_handle_ = sim_.every(units::Duration(kTickSeconds),
                            units::Duration(kTickSeconds), [this] { tick(); });
}

double TreeOverlay::root_head() const noexcept {
  // The baseline tree works in raw fractional block positions.
  return sim_.now().value() * kBlockRate;
}

int TreeOverlay::max_children_of(const Node& n) const noexcept {
  if (!n.reachable) return 0;  // NAT/firewall nodes cannot be interior
  return static_cast<int>(n.capacity_bps / kStreamRateBps);
}

net::NodeId TreeOverlay::join(double upload_capacity_bps, bool reachable) {
  assert(started_);
  Node n;
  n.live = true;
  n.reachable = reachable;
  n.capacity_bps = upload_capacity_bps;
  const auto id = static_cast<net::NodeId>(nodes_.size());
  nodes_.push_back(std::move(n));
  ++live_count_;
  // Control-plane latency of descending the tree.
  sim_.after(units::Duration(kJoinDelay), [this, id] {
    if (!nodes_[id].live || nodes_[id].parent != net::kInvalidNode) return;
    const net::NodeId parent = find_parent();
    if (parent != net::kInvalidNode && parent != id) {
      attach(id, parent);
    } else {
      schedule_rejoin(id);  // tree full: keep retrying
    }
  });
  return id;
}

net::NodeId TreeOverlay::find_parent() {
  // BFS from the root; pick the shallowest node with a free child slot.
  std::deque<net::NodeId> frontier{root_};
  while (!frontier.empty()) {
    const net::NodeId id = frontier.front();
    frontier.pop_front();
    const Node& n = nodes_[id];
    if (!n.live) continue;
    if (static_cast<int>(n.children.size()) < max_children_of(n)) return id;
    for (net::NodeId c : n.children) frontier.push_back(c);
  }
  return net::kInvalidNode;
}

void TreeOverlay::attach(net::NodeId child, net::NodeId parent) {
  Node& c = nodes_[child];
  Node& p = nodes_[parent];
  assert(c.live && p.live);
  c.parent = parent;
  p.children.push_back(child);
  if (c.head < 0.0) {
    // Fresh join: start behind the live edge by the offset (§IV-A analog).
    c.head = std::max(0.0, root_head() - kStartOffsetSeconds * kBlockRate);
  }
  // else: re-attachment keeps the already-received position.
}

void TreeOverlay::orphan_subtree(net::NodeId id) {
  Node& n = nodes_[id];
  for (net::NodeId c : n.children) {
    Node& child = nodes_[c];
    child.parent = net::kInvalidNode;
    if (child.live) {
      ++child.stats.reattachments;
      schedule_rejoin(c);
    }
  }
  n.children.clear();
}

void TreeOverlay::schedule_rejoin(net::NodeId id) {
  sim_.after(units::Duration(params_.repair_delay), [this, id] {
    Node& n = nodes_[id];
    if (!n.live || n.parent != net::kInvalidNode) return;
    const net::NodeId parent = find_parent();
    if (parent != net::kInvalidNode && parent != id) {
      attach(id, parent);
    } else {
      schedule_rejoin(id);
    }
  });
}

void TreeOverlay::leave(net::NodeId id) {
  assert(id != root_ && "the root never leaves");
  Node& n = nodes_[id];
  if (!n.live) return;
  n.live = false;
  --live_count_;
  if (n.parent != net::kInvalidNode) {
    auto& siblings = nodes_[n.parent].children;
    std::erase(siblings, id);
    n.parent = net::kInvalidNode;
  }
  orphan_subtree(id);
}

bool TreeOverlay::is_live(net::NodeId id) const noexcept {
  return id < nodes_.size() && nodes_[id].live;
}

int TreeOverlay::depth(net::NodeId id) const {
  int d = 0;
  net::NodeId cur = id;
  while (cur != root_) {
    const net::NodeId parent = nodes_[cur].parent;
    if (parent == net::kInvalidNode) return -1;
    cur = parent;
    if (++d > static_cast<int>(nodes_.size())) return -1;  // corrupt guard
  }
  return d;
}

void TreeOverlay::tick() {
  const double dt = kTickSeconds;
  const double now = sim_.now().value();
  nodes_[root_].head = root_head();

  // Fluid transfer, parents before children is not required: heads only
  // move forward and a one-tick lag is part of the model.
  for (std::size_t id = 0; id < nodes_.size(); ++id) {
    Node& n = nodes_[id];
    if (!n.live || id == root_) continue;
    if (n.parent == net::kInvalidNode || n.head < 0.0) {
      // orphaned / not yet attached: head stalls
    } else {
      const Node& p = nodes_[n.parent];
      const double share =
          p.capacity_bps / kStreamRateBps /
          static_cast<double>(std::max<std::size_t>(1, p.children.size())) *
          kBlockRate;
      const double rate = std::min(share, kMaxCatchupFactor * kBlockRate);
      n.head = std::min(n.head + rate * dt, p.head);
    }
    if (n.head < 0.0) continue;

    // Playback: starts once kMediaReadySeconds of stream are buffered
    // beyond the start position.
    if (!n.playing) {
      if (n.play_start < 0.0) {
        n.play_start = n.head;  // remember where playback will begin
      }
      if (n.head - n.play_start >=
          kMediaReadySeconds * kBlockRate) {
        n.playing = true;
        n.play_head_time = now;
        n.last_counted = n.play_start - 1.0;
      }
      continue;
    }

    // Deadlines: one block every 1/block_rate seconds from play start.
    const double due =
        n.play_start + (now - n.play_head_time) * kBlockRate - 1.0;
    while (n.last_counted + 1.0 <= due) {
      n.last_counted += 1.0;
      ++n.stats.blocks_due;
      if (n.head >= n.last_counted) ++n.stats.blocks_on_time;
    }
  }
}

double TreeOverlay::average_continuity() const noexcept {
  std::uint64_t due = 0;
  std::uint64_t on_time = 0;
  for (const auto& n : nodes_) {
    due += n.stats.blocks_due;
    on_time += n.stats.blocks_on_time;
  }
  return due == 0 ? 1.0
                  : static_cast<double>(on_time) / static_cast<double>(due);
}

const TreeNodeStats& TreeOverlay::stats(net::NodeId id) const {
  return nodes_.at(id).stats;
}

double TreeOverlay::attached_fraction() const noexcept {
  std::size_t live = 0;
  std::size_t attached = 0;
  for (std::size_t id = 0; id < nodes_.size(); ++id) {
    if (id == static_cast<std::size_t>(root_) || !nodes_[id].live) continue;
    ++live;
    if (nodes_[id].parent != net::kInvalidNode) ++attached;
  }
  return live == 0 ? 1.0
                   : static_cast<double>(attached) / static_cast<double>(live);
}

double TreeOverlay::mean_depth() const noexcept {
  double sum = 0.0;
  std::size_t count = 0;
  for (std::size_t id = 0; id < nodes_.size(); ++id) {
    if (id == static_cast<std::size_t>(root_) || !nodes_[id].live) continue;
    const int d = depth(static_cast<net::NodeId>(id));
    if (d >= 0) {
      sum += d;
      ++count;
    }
  }
  return count == 0 ? 0.0 : sum / static_cast<double>(count);
}

}  // namespace coolstream::baseline
