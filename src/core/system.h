// The System: glue between the simulator, the network substrate, the
// protocol peers, the data-plane fluid model, and the measurement pipeline.
//
// One System instance is one broadcast channel: it owns the dedicated
// servers, every peer that ever joined, the live list the boot-strap node
// samples, and the global tick that drives block transfer and protocol
// timers.  Peers live in one slab in id order: fixed chunks of
// kPeersPerChunk Peer objects that never move, each Peer holding its
// per-sub-stream lanes (heads, parents, credits) inline, so peer(id) is a
// chunk-table load plus an offset and a Peer's address is stable.
// Workload drivers call join()/leave(); everything else is protocol
// behaviour.  Buffer maps are not messages that receivers store: each
// node's periodic exchange publishes its K heads as its one Advertisement
// in an id-indexed array, and a partner's map is a read of it
// (core/partner_table.h).  Control messages are Message records
// (core/message.h) that all leave through post(): each delayed copy rides
// in its delivery event's in-place callback storage, and deliver()
// handles every kind.  Their one-way
// delays come from net::LatencyModel's fixed lognormal (median ~74 ms,
// capped at 1.5 s); no configuration varies them.
//
// Data plane.  Block transfer uses a discrete-time fluid model (period
// Params::flow_tick): each parent divides its upload capacity max-min
// fairly across its outgoing sub-stream connections; a connection's demand
// is the sub-stream rate R/K while the child is caught up and rises toward
// Params::max_catchup_factor * R/K during catch-up.  Credits accumulate per
// connection and materialize as whole blocks pushed in order — so Eq. (3)
// (catch-up), Eq. (4) (abandon) and Eq. (5) (competition rate) hold at the
// transport layer by construction, and the protocol reacts exactly as
// §IV-B describes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "core/bootstrap.h"
#include "core/mcache.h"
#include "core/message.h"
#include "core/params.h"
#include "core/peer.h"
#include "logging/log_server.h"
#include "net/latency.h"
#include "net/topology.h"
#include "net/transport.h"
#include "sim/shard_workers.h"
#include "sim/simulation.h"

namespace coolstream::core {

class InvariantAuditor;

/// Encoder -> server delay, seconds.
inline constexpr double kServerLag = 0.2;

/// How long a joining node aggregates partner BMs before choosing its
/// initial sequence offset (§IV-A), seconds.
inline constexpr double kJoinAggregationDelay = 1.0;

/// Largest partner cap (Params::max_partners, SystemConfig::
/// server_max_partners) a System accepts: a deferred BM publication counts
/// its partners in 16 bits, and the cap leaves room for in-flight slack.
inline constexpr int kMaxPartnerCap = 32768;
static_assert(Params::max_partners <= kMaxPartnerCap,
              "a viewer's partner cap must fit the outbox's partner count");

/// Deployment-level configuration that benches and workloads vary
/// (everything else that is not a Table-I protocol parameter is a
/// constant).
struct SystemConfig {
  int server_count = 24;                 ///< dedicated servers (§V-A)
  double server_capacity_bps = 100e6;    ///< 100 Mbps each (§V-A)
  int server_max_partners = 50;          ///< servers accept more partners
  McachePolicy mcache_policy = McachePolicy::kRandomReplace;
  /// Simulated seconds between runtime invariant audits (core/invariants.h);
  /// 0 (the default) attaches no auditor.
  double audit_period = 0.0;
  /// Protocol shards: peers are partitioned by id across N workers that
  /// run the tick's phases between deterministic barriers.  N >= 1 fixes
  /// the count; 0 (the default) resolves the COOLSTREAM_SHARDS environment
  /// variable, falling back to 1 when it is unset or empty.  The System
  /// constructor throws std::invalid_argument for a count outside [0, 64]
  /// and for a COOLSTREAM_SHARDS that is not an integer in [1, 64].  Every
  /// N produces bit-identical results (the tests/sharded differential tier
  /// is the proof).
  int shards = 0;
};

/// Session milestones surfaced to workload drivers.
enum class SessionEvent : unsigned char {
  kJoined = 0,
  kStartSubscription = 1,
  kMediaReady = 2,
  kLeft = 3,
};

/// Aggregate counters for benches.
struct SystemStats {
  std::uint64_t joins = 0;
  std::uint64_t leaves = 0;
  std::uint64_t partnership_accepts = 0;
  std::uint64_t partnership_rejects = 0;
  std::uint64_t subscriptions = 0;
  std::uint64_t blocks_transferred = 0;
};

/// One broadcast channel.
class System {
 public:
  /// Peers per slab chunk, a power of two so peer(id) is a shift and a
  /// mask.  Small chunks keep the unbuilt tail of the last chunk, address
  /// space the process never touches, from counting as heap held per live
  /// peer (DESIGN.md §14).
  static constexpr std::size_t kPeersPerChunk = 64;

  System(sim::Simulation& simulation, Params params, SystemConfig config,
         logging::LogServer* log_server);
  ~System();

  System(const System&) = delete;
  System& operator=(const System&) = delete;

  /// Creates the dedicated servers and starts the global tick.  Call once
  /// before the first join.
  void start();

  /// Adds a viewer; the peer immediately begins the §IV-A join process.
  /// Returns its node id.
  net::NodeId join(const PeerSpec& spec);

  /// Removes a node.  `graceful` leaves emit a leave activity report and
  /// notify partners; crashes notify partners (TCP reset) but report
  /// nothing — their sessions stay open in the log, as in the real trace.
  void leave(net::NodeId id, bool graceful = true);

  /// Whether `id` has joined and not left.  Liveness changes only in the
  /// serial join() and leave(), so any shard may ask during phase P.
  bool is_live(net::NodeId id) const noexcept;
  /// Every id ever minted has a Peer, live or departed; null past the
  /// last id.  The address stays valid for the System's lifetime.
  Peer* peer(net::NodeId id) noexcept;
  const Peer* peer(net::NodeId id) const noexcept;
  /// The peer when is_live(id), else null: the one liveness query for ids
  /// that may name a departed node (out-links, partners, messages).
  Peer* live_peer(net::NodeId id) noexcept;
  /// Live viewers right now (excludes servers).
  std::size_t live_viewer_count() const noexcept { return live_viewers_; }

  /// Full overlay snapshot for Fig.-4-style structural analysis.
  net::TopologySnapshot snapshot() const;

  // --- accessors -----------------------------------------------------------
  sim::Simulation& simulation() noexcept { return sim_; }
  const Params& params() const noexcept { return params_; }
  /// Attaches (or detaches, with nullptr) a fault injector: message faults
  /// hit the transport, capacity faults scale uplinks in the fluid data
  /// plane, flap faults make nodes refuse new inbound connections.  The
  /// injector must outlive the System or be detached first.  Off by
  /// default; with no injector every seeded run is bit-identical.
  void attach_faults(sim::FaultInjector* injector) noexcept {
    transport_.attach_faults(injector);
  }
  /// Ids of currently live nodes (servers + viewers), join order except
  /// for swap-removal on leave.  Deterministic across runs.  The boot-strap
  /// node answers from this list; it is the only record of the active set.
  const std::vector<net::NodeId>& live_nodes() const noexcept {
    return live_;
  }
  const SystemConfig& config() const noexcept { return config_; }
  net::Transport& transport() noexcept { return transport_; }
  logging::LogServer* log_server() noexcept { return log_; }
  const SystemStats& stats() const noexcept { return stats_; }

  /// Observer for session milestones (set by workload drivers).
  std::function<void(net::NodeId, SessionEvent)> observer;

  // --- services used by Peer (protocol plumbing) ---------------------------
  Tick now() const noexcept { return sim_.now(); }
  sim::Rng& rng() noexcept { return sim_.rng(); }
  /// Sends the boot-strap list request/response round trip.
  void request_bootstrap_list(net::NodeId requester);
  /// Initiates a partnership attempt (latency-delayed; §III-B).
  void attempt_partnership(net::NodeId from, net::NodeId to);
  /// Periodic BM exchange (§III-C), phase P only: sends the K head `lanes`
  /// to each of `partners` partners.  The lanes are snapshotted now into
  /// the sender's shard scratch behind one outbox record; the flush
  /// publishes them as `from`'s advertisement (zero latency, one BM
  /// message per partner) and drops the partners that have left.
  void exchange_bm(net::NodeId from, std::span<const SeqNum> lanes,
                   std::size_t partners);
  /// Every node's last published buffer map, indexed by node id.  Only
  /// the serial flush writes it, so any shard may read it in phase P.
  const std::vector<Advertisement>& advertisements() const noexcept {
    return adverts_;
  }
  /// Sub-stream subscription management (child -> parent).
  void subscribe(net::NodeId child, net::NodeId parent, SubstreamId j);
  void unsubscribe(net::NodeId child, net::NodeId parent, SubstreamId j);
  /// Gossip push of at most Message::kMaxEntries membership entries, copied
  /// into the Message record.
  void send_gossip(net::NodeId from, net::NodeId to,
                   std::span<const McacheEntry> entries);
  /// Sampling scratch for Mcache::sample_into, from the shard that owns
  /// peer `id` (no re-entrant use: protocol callbacks never nest a second
  /// sample inside one, and the scratch is cleared before each use).
  Mcache::SampleScratch& mcache_scratch(net::NodeId id) noexcept;
  /// Candidate buffer for Peer::try_establish_partnerships, from the shard
  /// that owns peer `id`.
  std::vector<McacheEntry>& candidate_scratch(net::NodeId id) noexcept;
  /// Drops the partnership between two nodes (both sides notified).
  void break_partnership(net::NodeId a, net::NodeId b);
  /// Files peer `from`'s report with the log server (no-op when none
  /// attached).
  void report(net::NodeId from, const logging::Report& r);
  /// Session milestones, called by Peer.
  void notify(net::NodeId id, SessionEvent event);
  /// Max partner count for a node (M for viewers, server override).
  int max_partners_of(const Peer& p) const noexcept;
  /// Whether `id` accepts inbound connections — what a peer infers from
  /// the advertised address class (public / UPnP-mapped vs plain NAT).
  bool is_reachable(net::NodeId id) const noexcept;
  /// Encoder position: contiguous head of sub-stream `j` at time `t`
  /// (servers lag this by kServerLag).
  SeqNum source_head(SubstreamId j, Tick t) const noexcept;

  /// The runtime invariant auditor, when start() attached one
  /// (config().audit_period > 0); else null.
  InvariantAuditor* auditor() noexcept { return auditor_.get(); }

  /// Resolved shard count (config().shards / COOLSTREAM_SHARDS / 1).
  int shard_count() const noexcept {
    return static_cast<int>(workers_.shard_count());
  }
  /// The shard that owns node `id` (pure id partition, stable for the
  /// node's lifetime).
  std::size_t shard_of(net::NodeId id) const noexcept {
    return id % workers_.shard_count();
  }

 private:
  friend struct InvariantTestAccess;  // seeded-corruption hooks (tests only)

  /// One effect deferred in phase P: a cross-peer interaction the peer the
  /// shard is running would have made through the plumbing.  The sender is
  /// tick_order_[pos], so no record names it.  Payloads wait in the
  /// shard's scratch and the record holds their index: a message's gossip
  /// entries start at `index` of `entries`, a BM publication's K lanes at
  /// `index` of `bm_lanes`, a report is `reports[index]`.
  struct Deferred {
    enum class Tag : std::uint8_t { kMessage, kBmPublish, kReport, kNotify };
    std::uint32_t pos = 0;  ///< sender's position in the tick order
    net::NodeId to = net::kInvalidNode;  ///< message receiver
    std::uint32_t index = 0;
    SubstreamId substream{};  ///< message sub-stream
    /// Gossip entries, BM partners (each one BM message, at most
    /// kMaxPartnerCap plus in-flight slack), or the SessionEvent.
    std::uint16_t count = 0;
    Message::Kind kind{};
    Tag tag{};
  };
  static_assert(sizeof(Deferred) <= 20);

  /// One worker's private buffers, indexed by shard (serial contexts use
  /// those of the shard that owns the peer at hand).  Consumed within a
  /// tick — the phase-P outputs by the flush, everything else within its
  /// phase — and never carry results across ticks, so placement cannot
  /// influence behaviour.
  struct ShardScratch {
    Mcache::SampleScratch mcache;
    std::vector<McacheEntry> candidates;
    /// F1 allocator buffers, one entry per out-link of the current parent.
    std::vector<units::BlockRate> demands;
    std::vector<units::BlockRate> rates;
    std::vector<std::size_t> active;
    /// This shard's tick positions, ascending (rebuilt at tick start).
    std::vector<std::uint32_t> positions;
    /// Phase P: the tick position of the peer this shard is running.
    std::uint32_t pos = 0;
    /// Effects deferred in phase P, in non-decreasing `pos` order (the
    /// worker runs its peers in tick order), and their payloads; cleared
    /// at tick start.  Only the shard's own worker appends to them.
    std::vector<Deferred> outbox;
    std::vector<McacheEntry> entries;  ///< gossip payloads, in post order
    std::vector<SeqNum> bm_lanes;  ///< K lanes per exchange
    std::vector<logging::Report> reports;
    std::size_t flushed = 0;  ///< the flush's cursor into `outbox`
    std::uint64_t blocks_transferred = 0;
  };

  /// Per-(child, sub-stream) flow slot: written by the unique owning
  /// parent in the rate phase, consumed by the child in the apply phase.
  /// `stamp` invalidates slots left over from earlier ticks.
  struct InFlow {
    units::BlockRate rate{};       ///< granted transfer rate this tick
    SeqNum parent_head{};          ///< parent's head, frozen at tick start
    net::NodeId parent = net::kInvalidNode;
    std::uint32_t pushed = 0;      ///< blocks the child applied (bytes_up)
    std::uint32_t stamp = 0;       ///< tick_stamp_ when written
  };

  void tick();
  /// Builds the next id's Peer in the slab and appends the id to live_.
  Peer& add_peer(const PeerSpec& spec);
  /// Slab slot of a minted id (id < peer_count_).
  Peer* slot(net::NodeId id) const noexcept;
  /// Phase F1 (sharded by parent): compute per-link rates from the frozen
  /// tick-start heads and publish them as InFlow slots.
  void flow_rates(std::size_t shard, Duration dt);
  /// Phase F2 (sharded by child): apply each sub-stream's slot — credits,
  /// deadline/window skips, block inserts.
  void flow_apply(std::size_t shard, Duration dt);
  /// Phase P (sharded by peer): tally bytes_up from the slots, then run
  /// Peer::on_tick with every cross-peer interaction deferred as effects.
  void protocol_phase(std::size_t shard, Tick t);
  /// Appends `effect` to the outbox of `from`'s shard, at the tick
  /// position that shard is running (phase P only; `from` must be that
  /// peer).
  void defer(net::NodeId from, Deferred effect);
  /// Applies every shard's outbox in canonical sender order: by sender
  /// position, then by emission order within the sender (serial).
  void flush_effects();
  void apply_effect(net::NodeId from, const ShardScratch& scratch,
                    const Deferred& effect);
  /// Stamps the partnership of live `a` and `b` mutual as of this tick
  /// when each now lists the other (called as the second side lists the
  /// first).
  void mark_mutual(Peer& a, net::NodeId b);
  /// Sends `msg` from `msg.from`: in phase P it waits in the sender's
  /// outbox for the flush; otherwise a delayed kind goes through send()
  /// and a zero-latency kind is counted and delivered at once.
  void post(const Message& msg);
  /// Counts a delayed `msg` and queues one delivery per copy the
  /// transport lets through; each delivery event carries the record.
  /// Serial contexts only.
  void send(const Message& msg);
  /// Handles one arrived message, whatever its kind.
  void deliver(const Message& msg);

  sim::Simulation& sim_;
  Params params_;
  SystemConfig config_;
  logging::LogServer* log_;
  net::LatencyModel latency_model_;
  net::Transport transport_;
  /// Storage for one Peer, built in place by add_peer().
  struct alignas(Peer) PeerSlot {
    std::byte bytes[sizeof(Peer)];
  };
  /// The peer slab: id i lives in chunk i / kPeersPerChunk at slot
  /// i % kPeersPerChunk, for every node that ever joined.  Chunks never
  /// move, so a Peer's address holds for the System's lifetime.
  std::vector<std::unique_ptr<PeerSlot[]>> chunks_;
  std::uint32_t peer_count_ = 0;  ///< ids minted, = slots built
  std::vector<net::NodeId> live_;  ///< ids of live nodes, join order
  /// By id: position in live_, or kNotLive once the node has left.
  std::vector<std::uint32_t> live_index_;
  std::vector<Advertisement> adverts_;  ///< by id: last published BM
  static constexpr std::uint32_t kNotLive = ~std::uint32_t{0};
  std::size_t live_viewers_ = 0;
  std::uint64_t next_session_id_ = 1;
  std::uint64_t next_user_auto_ = 1'000'000'000ULL;
  SystemStats stats_;
  sim::EventHandle tick_handle_;
  std::unique_ptr<InvariantAuditor> auditor_;
  bool started_ = false;

  // --- sharded tick engine -------------------------------------------------
  std::uint32_t tick_stamp_ = 0;
  std::vector<net::NodeId> tick_order_;    ///< live_, frozen at tick start
  std::vector<InFlow> inflow_;  ///< peer_count_ * K slots, stamp-guarded
  /// True while phase P runs, when the plumbing defers.  Only the tick
  /// thread writes it, and only between phase barriers.
  bool deferring_ = false;
  std::vector<ShardScratch> shard_scratch_;  ///< one per shard
  /// Runs the tick's phases, one shard each; it owns the resolved count.
  sim::ShardWorkers workers_;

  // zero-alloc boot-strap responses: sampling, id and list scratch
  std::vector<std::size_t> bootstrap_idx_scratch_;
  std::vector<net::NodeId> bootstrap_ids_scratch_;
  std::vector<McacheEntry> bootstrap_list_scratch_;
  std::vector<net::NodeId> leave_scratch_;  ///< leave()'s partner ids (serial)
};

}  // namespace coolstream::core
