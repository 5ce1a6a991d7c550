#include "baseline/multi_tree.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <deque>

#include "baseline/tree_overlay.h"

namespace coolstream::baseline {
namespace {

constexpr auto kStripeCount = static_cast<std::size_t>(kStripes);
constexpr double kStripeRateBps = kStreamRateBps / kStripes;
constexpr double kStripeBlockRate = kBlockRate / kStripes;

}  // namespace

MultiTreeOverlay::MultiTreeOverlay(sim::Simulation& simulation,
                                   MultiTreeParams params)
    : sim_(simulation), params_(params) {}

MultiTreeOverlay::~MultiTreeOverlay() { tick_handle_.cancel(); }

void MultiTreeOverlay::start() {
  assert(!started_);
  started_ = true;
  Node root;
  root.live = true;
  root.reachable = true;
  root.capacity_bps = params_.root_capacity_bps;
  root.primary = -1;  // the root is interior in every stripe
  root.parent.assign(kStripeCount, net::kInvalidNode);
  root.kids.resize(kStripeCount);
  root.head.assign(kStripeCount, 0.0);
  root_ = 0;
  nodes_.push_back(std::move(root));
  live_count_ = 1;
  tick_handle_ = sim_.every(units::Duration(kTickSeconds),
                            units::Duration(kTickSeconds), [this] { tick(); });
}

double MultiTreeOverlay::root_stripe_head() const noexcept {
  // The baseline trees work in raw fractional block positions.
  return sim_.now().value() * kStripeBlockRate;
}

int MultiTreeOverlay::max_children_of(const Node& n,
                                      int stripe) const noexcept {
  if (&n == &nodes_[root_]) {
    // The root splits its capacity evenly across stripes.
    return static_cast<int>(n.capacity_bps / static_cast<double>(kStripes) /
                            kStripeRateBps);
  }
  if (!n.reachable || n.primary != stripe) return 0;
  // Interior in the primary stripe only, with its full uplink.
  return static_cast<int>(n.capacity_bps / kStripeRateBps);
}

net::NodeId MultiTreeOverlay::join(double upload_capacity_bps,
                                   bool reachable) {
  assert(started_);
  Node n;
  n.live = true;
  n.reachable = reachable;
  n.capacity_bps = upload_capacity_bps;
  n.primary = next_primary_;
  next_primary_ = (next_primary_ + 1) % kStripes;
  n.parent.assign(kStripeCount, net::kInvalidNode);
  n.kids.resize(kStripeCount);
  n.head.assign(kStripeCount, -1.0);
  const auto id = static_cast<net::NodeId>(nodes_.size());
  nodes_.push_back(std::move(n));
  ++live_count_;
  sim_.after(units::Duration(kJoinDelay), [this, id] {
    if (!nodes_[id].live) return;
    const double start = std::max(
        0.0, root_stripe_head() - kStartOffsetSeconds * kStripeBlockRate);
    for (int stripe = 0; stripe < kStripes; ++stripe) {
      if (nodes_[id].head[static_cast<std::size_t>(stripe)] < 0.0) {
        nodes_[id].head[static_cast<std::size_t>(stripe)] = start;
      }
      if (nodes_[id].parent[static_cast<std::size_t>(stripe)] ==
          net::kInvalidNode) {
        const net::NodeId parent = find_parent(stripe);
        if (parent != net::kInvalidNode && parent != id) {
          attach(id, parent, stripe);
        } else {
          schedule_rejoin(id, stripe);
        }
      }
    }
  });
  return id;
}

net::NodeId MultiTreeOverlay::find_parent(int stripe) {
  std::deque<net::NodeId> frontier{root_};
  while (!frontier.empty()) {
    const net::NodeId id = frontier.front();
    frontier.pop_front();
    const Node& n = nodes_[id];
    if (!n.live) continue;
    const auto& kids = n.kids[static_cast<std::size_t>(stripe)];
    if (static_cast<int>(kids.size()) < max_children_of(n, stripe)) {
      return id;
    }
    for (net::NodeId c : kids) frontier.push_back(c);
  }
  return net::kInvalidNode;
}

void MultiTreeOverlay::attach(net::NodeId child, net::NodeId parent,
                              int stripe) {
  Node& c = nodes_[child];
  Node& p = nodes_[parent];
  assert(c.live && p.live);
  c.parent[static_cast<std::size_t>(stripe)] = parent;
  p.kids[static_cast<std::size_t>(stripe)].push_back(child);
}

void MultiTreeOverlay::schedule_rejoin(net::NodeId id, int stripe) {
  sim_.after(units::Duration(params_.repair_delay), [this, id, stripe] {
    Node& n = nodes_[id];
    if (!n.live ||
        n.parent[static_cast<std::size_t>(stripe)] != net::kInvalidNode) {
      return;
    }
    const net::NodeId parent = find_parent(stripe);
    if (parent != net::kInvalidNode && parent != id) {
      attach(id, parent, stripe);
    } else {
      schedule_rejoin(id, stripe);
    }
  });
}

void MultiTreeOverlay::leave(net::NodeId id) {
  assert(id != root_ && "the root never leaves");
  Node& n = nodes_[id];
  if (!n.live) return;
  n.live = false;
  --live_count_;
  for (int stripe = 0; stripe < kStripes; ++stripe) {
    const auto s = static_cast<std::size_t>(stripe);
    if (n.parent[s] != net::kInvalidNode) {
      auto& siblings = nodes_[n.parent[s]].kids[s];
      std::erase(siblings, id);
      n.parent[s] = net::kInvalidNode;
    }
    // Orphan this stripe's subtree (non-primary stripes have no kids).
    for (net::NodeId c : n.kids[s]) {
      Node& child = nodes_[c];
      child.parent[s] = net::kInvalidNode;
      if (child.live) {
        ++child.stats.reattachments;
        schedule_rejoin(c, stripe);
      }
    }
    n.kids[s].clear();
  }
}

bool MultiTreeOverlay::is_live(net::NodeId id) const noexcept {
  return id < nodes_.size() && nodes_[id].live;
}

int MultiTreeOverlay::depth(net::NodeId id, int stripe) const {
  int d = 0;
  net::NodeId cur = id;
  while (cur != root_) {
    const net::NodeId parent =
        nodes_[cur].parent[static_cast<std::size_t>(stripe)];
    if (parent == net::kInvalidNode) return -1;
    cur = parent;
    if (++d > static_cast<int>(nodes_.size())) return -1;
  }
  return d;
}

void MultiTreeOverlay::tick() {
  const double dt = kTickSeconds;
  const double now = sim_.now().value();
  const double root_head = root_stripe_head();
  for (auto& h : nodes_[root_].head) h = root_head;

  const int k = kStripes;
  for (std::size_t id = 0; id < nodes_.size(); ++id) {
    Node& n = nodes_[id];
    if (!n.live || id == static_cast<std::size_t>(root_)) continue;

    // Per-stripe fluid transfer.
    for (int stripe = 0; stripe < k; ++stripe) {
      const auto s = static_cast<std::size_t>(stripe);
      if (n.parent[s] == net::kInvalidNode || n.head[s] < 0.0) continue;
      const Node& p = nodes_[n.parent[s]];
      const double slots = static_cast<double>(
          std::max<std::size_t>(1, p.kids[s].size()));
      const double per_child_bps =
          (&p == &nodes_[root_]
               ? p.capacity_bps / static_cast<double>(k)
               : p.capacity_bps) /
          slots;
      const double rate =
          std::min(per_child_bps / kStripeRateBps * kStripeBlockRate,
                   kMaxCatchupFactor * kStripeBlockRate);
      n.head[s] = std::min(n.head[s] + rate * dt, p.head[s]);
    }

    bool any_feed = false;
    for (int stripe = 0; stripe < k; ++stripe) {
      if (n.head[static_cast<std::size_t>(stripe)] >= 0.0) any_feed = true;
    }
    if (!any_feed) continue;

    // Playback over the interleaved global order: global block g needs
    // stripe g%k to hold sequence g/k.
    if (!n.playing) {
      if (n.play_start < 0.0) {
        double min_head = n.head[0];
        for (int stripe = 1; stripe < k; ++stripe) {
          min_head =
              std::min(min_head, n.head[static_cast<std::size_t>(stripe)]);
        }
        if (min_head < 0.0) continue;
        n.play_start = std::floor(min_head) * k;
      }
      // Ready when kMediaReadySeconds of interleaved stream are present.
      double min_head = n.head[0];
      for (int stripe = 1; stripe < k; ++stripe) {
        min_head =
            std::min(min_head, n.head[static_cast<std::size_t>(stripe)]);
      }
      const double combined = std::floor(min_head) * k;
      if (combined - n.play_start >=
          kMediaReadySeconds * kBlockRate) {
        n.playing = true;
        n.play_head_time = now;
        n.last_counted = n.play_start - 1.0;
      }
      continue;
    }

    const double due =
        n.play_start + (now - n.play_head_time) * kBlockRate - 1.0;
    while (n.last_counted + 1.0 <= due) {
      n.last_counted += 1.0;
      ++n.stats.blocks_due;
      const auto g = static_cast<long long>(n.last_counted);
      const int stripe = static_cast<int>(g % k);
      const double need = std::floor(static_cast<double>(g / k));
      if (n.head[static_cast<std::size_t>(stripe)] >= need + 1.0) {
        ++n.stats.blocks_on_time;
      }
    }
  }
}

double MultiTreeOverlay::average_continuity() const noexcept {
  std::uint64_t due = 0;
  std::uint64_t on_time = 0;
  for (const auto& n : nodes_) {
    due += n.stats.blocks_due;
    on_time += n.stats.blocks_on_time;
  }
  return due == 0 ? 1.0
                  : static_cast<double>(on_time) / static_cast<double>(due);
}

const MultiTreeNodeStats& MultiTreeOverlay::stats(net::NodeId id) const {
  return nodes_.at(id).stats;
}

double MultiTreeOverlay::attached_fraction() const noexcept {
  std::size_t pairs = 0;
  std::size_t attached = 0;
  for (std::size_t id = 0; id < nodes_.size(); ++id) {
    if (id == static_cast<std::size_t>(root_) || !nodes_[id].live) continue;
    for (int stripe = 0; stripe < kStripes; ++stripe) {
      ++pairs;
      if (nodes_[id].parent[static_cast<std::size_t>(stripe)] !=
          net::kInvalidNode) {
        ++attached;
      }
    }
  }
  return pairs == 0 ? 1.0
                    : static_cast<double>(attached) /
                          static_cast<double>(pairs);
}

}  // namespace coolstream::baseline
