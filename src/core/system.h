// The System: glue between the simulator, the network substrate, the
// protocol peers, the data-plane fluid model, and the measurement pipeline.
//
// One System instance is one broadcast channel: it owns the dedicated
// servers, every peer that ever joined, the live list the boot-strap node
// samples, and the global tick that drives block transfer and protocol
// timers.  Workload drivers
// call join()/leave(); everything else is protocol behaviour.  Control
// messages are Message records (core/message.h) that all leave through
// post(): each delayed copy rides in its delivery event's in-place
// callback storage, and deliver() handles every kind.  Their one-way
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
#include "core/tick_effects.h"
#include "logging/log_server.h"
#include "net/latency.h"
#include "net/topology.h"
#include "net/transport.h"
#include "sim/shard_mailbox.h"
#include "sim/shard_workers.h"
#include "sim/simulation.h"

namespace coolstream::core {

class InvariantAuditor;

/// Uplink sharing policy of the data plane (ablation: §V-E's "system
/// capacity" factor depends on how well uplinks are used).
enum class AllocationPolicy : unsigned char {
  kMaxMinFair = 0,  ///< progressive filling; surplus is redistributed
  kEqualShare = 1,  ///< naive per-connection split; surplus can be wasted
};

/// Encoder -> server delay, seconds.
inline constexpr double kServerLag = 0.2;

/// How long a joining node aggregates partner BMs before choosing its
/// initial sequence offset (§IV-A), seconds.
inline constexpr double kJoinAggregationDelay = 1.0;

/// Deployment-level configuration that benches and workloads vary
/// (everything else that is not a Table-I protocol parameter is a
/// constant).
struct SystemConfig {
  int server_count = 24;                 ///< dedicated servers (§V-A)
  double server_capacity_bps = 100e6;    ///< 100 Mbps each (§V-A)
  int server_max_partners = 50;          ///< servers accept more partners
  McachePolicy mcache_policy = McachePolicy::kRandomReplace;
  AllocationPolicy allocation = AllocationPolicy::kMaxMinFair;
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
    faults_ = injector;
    transport_.attach_faults(injector);
  }
  sim::FaultInjector* faults() const noexcept { return faults_; }
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
  /// Delivers `from`'s K head `lanes` to `to` right away (zero latency;
  /// counted as one BM message).  A dead `to` is dropped from `from`'s
  /// partners instead.  Serial contexts only: the one-off push when a
  /// partnership comes up, and the flush of a periodic broadcast.
  void push_bm(net::NodeId from, net::NodeId to,
               std::span<const SeqNum> lanes);
  /// Periodic BM exchange (§III-C), phase P only: sends the K head `lanes`
  /// to every partner.  The lanes and the partner ids are snapshotted now
  /// into the sender's shard scratch and emitted as one EffectBmPush; the
  /// flush pushes them in partner order.
  void broadcast_bm(net::NodeId from, std::span<const SeqNum> lanes,
                    const PartnerTable& partners);
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
    /// Effect payloads emitted in phase P, read back by the flush through
    /// the indices the effects hold; cleared at tick start.  Only the
    /// shard's own worker appends to them.
    std::vector<Message> outbox;  ///< posted messages, in post order
    std::vector<SeqNum> bm_lanes;  ///< K lanes per broadcast
    std::vector<net::NodeId> bm_targets;  ///< partners per broadcast
    std::vector<logging::Report> reports;
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
  /// Appends a freshly minted id to live_ and records its position.
  void add_live(net::NodeId id);
  /// Phase F1 (sharded by parent): compute per-link rates from the frozen
  /// tick-start heads and publish them as InFlow slots.
  void flow_rates(std::size_t shard, Duration dt);
  /// Phase F2 (sharded by child): apply each sub-stream's slot — credits,
  /// deadline/window skips, block inserts.
  void flow_apply(std::size_t shard, Duration dt);
  /// Phase P (sharded by peer): tally bytes_up from the slots, then run
  /// Peer::on_tick with every cross-peer interaction deferred as effects.
  void protocol_phase(std::size_t shard, Tick t);
  /// Queues `effect` in the lane of `from`'s shard, at the tick position
  /// that shard is running (phase P only; `from` must be that peer).
  void defer(net::NodeId from, TickEffect effect);
  /// Drains the effect mailbox in canonical sender order (serial).
  void flush_effects();
  void apply_effect(net::NodeId from, TickEffect&& effect);
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
  std::vector<std::unique_ptr<Peer>> peers_;
  std::vector<net::NodeId> live_;  ///< ids of live nodes, join order
  /// By id: position in live_, or kNotLive once the node has left.
  std::vector<std::uint32_t> live_index_;
  static constexpr std::uint32_t kNotLive = ~std::uint32_t{0};
  std::size_t live_viewers_ = 0;
  std::uint64_t next_session_id_ = 1;
  std::uint64_t next_user_auto_ = 1'000'000'000ULL;
  SystemStats stats_;
  sim::EventHandle tick_handle_;
  std::unique_ptr<InvariantAuditor> auditor_;
  sim::FaultInjector* faults_ = nullptr;
  bool started_ = false;

  // --- sharded tick engine -------------------------------------------------
  std::uint32_t tick_stamp_ = 0;
  std::vector<net::NodeId> tick_order_;    ///< live_, frozen at tick start
  std::vector<InFlow> inflow_;  ///< peers_.size() * K slots, stamp-guarded
  sim::ShardMailbox<TickEffect> effects_;
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
