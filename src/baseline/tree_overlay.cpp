#include "baseline/tree_overlay.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <deque>

namespace coolstream::baseline {

TreeOverlay::TreeOverlay(sim::Simulation& simulation, TreeParams params)
    : sim_(simulation), params_(params) {
  assert(params_.stripes >= 1);
}

TreeOverlay::~TreeOverlay() { tick_handle_.cancel(); }

void TreeOverlay::start() {
  assert(!started_);
  started_ = true;
  const auto k = static_cast<std::size_t>(params_.stripes);
  Node root;
  root.live = true;
  root.reachable = true;
  root.capacity_bps = params_.root_capacity_bps;
  root.primary = -1;  // the root is interior in every stripe
  root.parent.assign(k, net::kInvalidNode);
  root.kids.resize(k);
  root.head.assign(k, 0.0);
  root_ = 0;
  nodes_.push_back(std::move(root));
  live_count_ = 1;
  tick_handle_ = sim_.every(units::Duration(kTickSeconds),
                            units::Duration(kTickSeconds), [this] { tick(); });
}

double TreeOverlay::stripe_rate_bps() const noexcept {
  return kStreamRateBps / params_.stripes;
}

double TreeOverlay::stripe_block_rate() const noexcept {
  return kBlockRate / params_.stripes;
}

double TreeOverlay::root_stripe_head() const noexcept {
  // The baseline trees work in raw fractional block positions.
  return sim_.now().value() * stripe_block_rate();
}

int TreeOverlay::max_children_of(const Node& n, int stripe) const noexcept {
  if (&n == &nodes_[root_]) {
    // The root splits its capacity evenly across stripes.
    return static_cast<int>(n.capacity_bps /
                            static_cast<double>(params_.stripes) /
                            stripe_rate_bps());
  }
  if (!n.reachable || n.primary != stripe) return 0;
  // Interior in the primary stripe only, with its full uplink.
  return static_cast<int>(n.capacity_bps / stripe_rate_bps());
}

net::NodeId TreeOverlay::join(double upload_capacity_bps, bool reachable) {
  assert(started_);
  const auto k = static_cast<std::size_t>(params_.stripes);
  Node n;
  n.live = true;
  n.reachable = reachable;
  n.capacity_bps = upload_capacity_bps;
  n.primary = next_primary_;
  next_primary_ = (next_primary_ + 1) % params_.stripes;
  n.parent.assign(k, net::kInvalidNode);
  n.kids.resize(k);
  n.head.assign(k, -1.0);
  const auto id = static_cast<net::NodeId>(nodes_.size());
  nodes_.push_back(std::move(n));
  ++live_count_;
  // Control-plane latency of descending the trees.  The start position is
  // fixed here, behind the live edge by the offset (§IV-A analog), even
  // when a tree is full and the attach has to wait.
  sim_.after(units::Duration(kJoinDelay), [this, id] {
    if (!nodes_[id].live) return;
    const double start = std::max(
        0.0, root_stripe_head() - kStartOffsetSeconds * stripe_block_rate());
    nodes_[id].head.assign(nodes_[id].head.size(), start);
    for (int stripe = 0; stripe < params_.stripes; ++stripe) {
      attach_or_retry(id, stripe);
    }
  });
  return id;
}

net::NodeId TreeOverlay::find_parent(int stripe) {
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

void TreeOverlay::attach_or_retry(net::NodeId id, int stripe) {
  const net::NodeId parent = find_parent(stripe);
  if (parent != net::kInvalidNode && parent != id) {
    attach(id, parent, stripe);
  } else {
    schedule_rejoin(id, stripe);
  }
}

void TreeOverlay::attach(net::NodeId child, net::NodeId parent, int stripe) {
  Node& c = nodes_[child];
  Node& p = nodes_[parent];
  assert(c.live && p.live);
  c.parent[static_cast<std::size_t>(stripe)] = parent;
  p.kids[static_cast<std::size_t>(stripe)].push_back(child);
}

void TreeOverlay::schedule_rejoin(net::NodeId id, int stripe) {
  sim_.after(units::Duration(params_.repair_delay), [this, id, stripe] {
    const Node& n = nodes_[id];
    if (!n.live ||
        n.parent[static_cast<std::size_t>(stripe)] != net::kInvalidNode) {
      return;
    }
    attach_or_retry(id, stripe);
  });
}

void TreeOverlay::leave(net::NodeId id) {
  assert(id != root_ && "the root never leaves");
  Node& n = nodes_[id];
  if (!n.live) return;
  n.live = false;
  --live_count_;
  for (int stripe = 0; stripe < params_.stripes; ++stripe) {
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

bool TreeOverlay::is_live(net::NodeId id) const noexcept {
  return id < nodes_.size() && nodes_[id].live;
}

int TreeOverlay::depth(net::NodeId id, int stripe) const {
  int d = 0;
  net::NodeId cur = id;
  while (cur != root_) {
    const net::NodeId parent =
        nodes_[cur].parent[static_cast<std::size_t>(stripe)];
    if (parent == net::kInvalidNode) return -1;
    cur = parent;
    if (++d > static_cast<int>(nodes_.size())) return -1;  // corrupt guard
  }
  return d;
}

void TreeOverlay::tick() {
  const double dt = kTickSeconds;
  const double now = sim_.now().value();
  const double root_head = root_stripe_head();
  for (auto& h : nodes_[root_].head) h = root_head;

  const int k = params_.stripes;
  const double stripe_rate = stripe_rate_bps();
  const double stripe_blocks = stripe_block_rate();
  for (std::size_t id = 0; id < nodes_.size(); ++id) {
    Node& n = nodes_[id];
    if (!n.live || id == static_cast<std::size_t>(root_)) continue;

    // Per-stripe fluid transfer.  Parents before children is not
    // required: heads only move forward and a one-tick lag is part of the
    // model.
    for (std::size_t s = 0; s < n.head.size(); ++s) {
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
          std::min(per_child_bps / stripe_rate * stripe_blocks,
                   kMaxCatchupFactor * stripe_blocks);
      n.head[s] = std::min(n.head[s] + rate * dt, p.head[s]);
    }

    // Playback over the interleaved global order: global block g needs
    // stripe g%k to hold sequence g/k.  Every head gets its start
    // position at once, so the slowest one is negative until the join
    // delay has passed.
    if (!n.playing) {
      const double min_head = *std::min_element(n.head.begin(), n.head.end());
      if (min_head < 0.0) continue;
      const double combined = std::floor(min_head) * k;
      if (n.play_start < 0.0) n.play_start = combined;
      // Ready when kMediaReadySeconds of interleaved stream are present.
      if (combined - n.play_start >= kMediaReadySeconds * kBlockRate) {
        n.playing = true;
        n.play_head_time = now;
        n.last_counted = n.play_start - 1.0;
      }
      continue;
    }

    // Deadlines: one global block every 1/block_rate seconds from play
    // start; block g is on time only when fully received.
    const double due =
        n.play_start + (now - n.play_head_time) * kBlockRate - 1.0;
    while (n.last_counted + 1.0 <= due) {
      n.last_counted += 1.0;
      ++n.stats.blocks_due;
      const auto g = static_cast<long long>(n.last_counted);
      const auto stripe = static_cast<std::size_t>(g % k);
      const double need = std::floor(static_cast<double>(g / k));
      if (n.head[stripe] >= need + 1.0) ++n.stats.blocks_on_time;
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
  std::size_t pairs = 0;
  std::size_t attached = 0;
  for (std::size_t id = 0; id < nodes_.size(); ++id) {
    if (id == static_cast<std::size_t>(root_) || !nodes_[id].live) continue;
    for (const net::NodeId parent : nodes_[id].parent) {
      ++pairs;
      if (parent != net::kInvalidNode) ++attached;
    }
  }
  return pairs == 0 ? 1.0
                    : static_cast<double>(attached) /
                          static_cast<double>(pairs);
}

}  // namespace coolstream::baseline
