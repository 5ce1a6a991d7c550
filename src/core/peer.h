// A Coolstreaming node: membership manager + partnership manager + stream
// manager (Fig. 1), driven by the System's tick and message callbacks.
//
// Life cycle (§IV-A, §V-C):
//   kJoining    contacted the boot-strap node, establishing partnerships
//   kBuffering  start-subscription done; sub-streams subscribed, waiting
//               for the media-ready buffer to fill
//   kPlaying    media player running; playout deadlines drive the
//               continuity index
//   kLeft       departed (gracefully or crashed)
//
// Dedicated servers (PeerKind::kServer) share the partnership/serving code
// but are fed directly from the encoder clock and never adapt or play.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "core/mcache.h"
#include "core/params.h"
#include "core/partner_table.h"
#include "core/stream_types.h"
#include "core/sync_buffer.h"
#include "logging/reports.h"
#include "net/address.h"
#include "net/connectivity.h"
#include "net/types.h"
#include "sim/rng.h"

namespace coolstream::core {

class System;

/// Server or ordinary viewer.
enum class PeerKind : unsigned char { kServer = 0, kViewer = 1 };

/// Session phase.
enum class PeerPhase : unsigned char {
  kJoining = 0,
  kBuffering = 1,
  kPlaying = 2,
  kLeft = 3,
};

/// Static description of a node (assigned by the workload generator).
struct PeerSpec {
  std::uint64_t user_id = 0;
  PeerKind kind = PeerKind::kViewer;
  net::ConnectionType type = net::ConnectionType::kDirect;
  net::Ipv4Address address;
  units::BitRate upload_capacity = units::BitRate(1'000'000.0);
};

/// Parent-side record of one sub-stream push connection.
struct OutLink {
  net::NodeId child = net::kInvalidNode;
  SubstreamId substream{};
};

/// Running counters exposed for figures and tests.  Members are ordered
/// 8-byte fields first, then the 32-bit counters (an even count), so the
/// struct packs hole-free.
struct PeerStats {
  std::uint64_t blocks_due = 0;        ///< playout deadlines passed
  std::uint64_t blocks_on_time = 0;    ///< of those, block was present
  units::Bytes bytes_up{};             ///< data-plane upload (lifetime)
  units::Bytes bytes_down{};
  Duration stall_seconds{};            ///< total time spent frozen
  /// Completed sub-stream subscription episodes, split by parent class
  /// (capable = server/direct/UPnP).  Weak-parent subscriptions being
  /// short-lived is the §V-B convergence mechanism.
  Duration capable_subscription_time{};
  Duration weak_subscription_time{};

  std::uint32_t adaptations = 0;       ///< Ineq.(1)/(2)-triggered reselects
  std::uint32_t parent_switches = 0;   ///< actual sub-stream parent changes
  std::uint32_t partnership_attempts = 0;
  std::uint32_t partnership_rejections = 0;
  std::uint32_t window_skips = 0;      ///< fell out of a parent's buffer
  std::uint32_t deadline_skips = 0;    ///< jumped over already-due blocks
  std::uint32_t stalls = 0;            ///< player freezes (rebuffering)
  std::uint32_t resyncs = 0;           ///< playout timeline re-anchors
  std::uint32_t capable_subscriptions_ended = 0;
  std::uint32_t weak_subscriptions_ended = 0;
};

/// One Coolstreaming node.  It holds its own state: the scalars the
/// protocol reads on the tick path first, then the per-lane arrays, then
/// the heap-owning containers.  `System` builds every `Peer` in place in
/// id-ordered chunks that never move (DESIGN.md §14), so nothing here is
/// copied or addressed by offset.
class Peer {
 public:
  Peer(System& system, net::NodeId id, PeerSpec spec,
       units::SessionId session_id, Tick now);

  Peer(const Peer&) = delete;
  Peer& operator=(const Peer&) = delete;

  // --- identity ----------------------------------------------------------
  net::NodeId id() const noexcept { return id_; }
  const PeerSpec& spec() const noexcept { return spec_; }
  PeerKind kind() const noexcept { return spec_.kind; }
  PeerPhase phase() const noexcept { return phase_; }
  units::SessionId session_id() const noexcept { return session_id_; }
  Tick joined_at() const noexcept { return joined_at_; }
  bool alive() const noexcept { return phase_ != PeerPhase::kLeft; }

  // --- protocol events (invoked by System) --------------------------------
  /// Begins the join process: requests the boot-strap list.
  void start_join();
  /// Boot-strap response: seeds the mCache and attempts partnerships.
  void on_bootstrap_list(std::span<const McacheEntry> list);
  /// A partnership with `peer` is now up.
  void on_partnership_established(net::NodeId peer, bool incoming);
  /// An attempt we initiated failed (unreachable / partner limit).
  void on_partnership_rejected(net::NodeId peer);
  /// Both sides list `peer` and us since tick `stamp`: its advertisements
  /// published after that tick are its buffer map to us.  Returns false
  /// when we do not list `peer`.
  bool mark_mutual(net::NodeId peer, std::uint32_t stamp) noexcept {
    return partners_.mark_mutual(peer, stamp);
  }
  /// Partner left or broke the connection.
  void on_partner_left(net::NodeId peer);
  /// Gossip payload: entries from a partner's mCache.
  void on_gossip(std::span<const McacheEntry> entries);
  /// Child subscribes to / unsubscribes from sub-stream `j` (parent side).
  void on_subscribe(net::NodeId child, SubstreamId j);
  void on_unsubscribe(net::NodeId child, SubstreamId j);

  /// Periodic driver; `now` is the tick time.  Runs every due timer
  /// (BM exchange, gossip, adaptation, partner refill, status report) and the
  /// phase logic (media-ready check, playout accounting, server feed).
  void on_tick(Tick now);

  /// Tears the node down: unsubscribes children bookkeeping is handled by
  /// System; this finalizes local state and freezes stats.
  void set_left();

  // --- data plane (FlowModel access) ---------------------------------------
  SyncBuffer& sync() noexcept { return sync_; }
  const SyncBuffer& sync() const noexcept { return sync_; }
  std::vector<OutLink>& out_links() noexcept { return out_links_; }
  const std::vector<OutLink>& out_links() const noexcept { return out_links_; }
  SeqNum head(SubstreamId j) const { return sync_.head(j); }
  /// Upload capacity in blocks per second.
  units::BlockRate upload_block_rate() const noexcept;
  double& credit(SubstreamId j) { return credits_[j.index()]; }
  void add_bytes_up(units::Bytes b) noexcept {
    stats_.bytes_up += b;
    interval_bytes_up_ += b;
  }
  void add_bytes_down(units::Bytes b) noexcept {
    stats_.bytes_down += b;
    interval_bytes_down_ += b;
  }
  /// The child's next block on sub-stream `j` has been pushed out of the
  /// parent's cache window, which starts at `window_start`.  Jumps the
  /// sub-stream forward; small gaps are charged as missed at their
  /// deadlines, deep gaps trigger a playout resync.
  void handle_window_gap(SubstreamId j, SeqNum window_start);

  /// Latest sub-stream-`j` sequence number whose playback deadline has
  /// already been counted (with safety margin); blocks at or below it are
  /// dead — a parent pushes only "blocks of a sub-stream in need" (§IV-B),
  /// so the data plane skips over them instead of wasting uplink.
  /// kNoSeq while not playing (everything is still in need).
  SeqNum deadline_floor(SubstreamId j) const noexcept;
  void count_deadline_skip() noexcept { ++stats_.deadline_skips; }

  // --- partnership / subscription state ------------------------------------
  const PartnerTable& partners() const noexcept { return partners_; }
  std::size_t partner_count() const noexcept { return partners_.size(); }
  bool partners_full() const noexcept;
  net::NodeId parent_of(SubstreamId j) const { return parents_[j.index()]; }
  bool had_incoming() const noexcept { return had_incoming_; }
  bool had_outgoing() const noexcept { return had_outgoing_; }

  // --- measurement ----------------------------------------------------------
  const PeerStats& stats() const noexcept { return stats_; }
  const Mcache& mcache() const noexcept { return mcache_; }
  /// Global sequence the player starts at; set at start-subscription.
  GlobalSeq play_start_seq() const noexcept { return play_start_seq_; }
  /// Last global block whose deadline has been processed (the playhead);
  /// kNoSeq before playback.  live_edge - playhead is the playback latency.
  GlobalSeq playhead() const noexcept { return last_deadline_counted_; }

 private:
  friend struct InvariantTestAccess;  // seeded-corruption hooks (tests only)

  // --- join / subscription logic ---
  void try_establish_partnerships(std::size_t want);
  void decide_start_offset();
  void subscribe_substream(SubstreamId j, net::NodeId parent);
  /// Closes the books on the current subscription of sub-stream j (if
  /// any): records its lifetime under the parent's class.
  void end_subscription(SubstreamId j);
  /// Picks a parent for sub-stream j among current partners, honouring the
  /// two inequalities; returns kInvalidNode when no partner qualifies and
  /// no fallback exists.
  net::NodeId select_parent(SubstreamId j, net::NodeId exclude) const;
  void run_adaptation(Tick now, bool cooldown_exempt);
  void reselect(SubstreamId j);
  void send_status_reports(Tick now);
  void do_playout(Tick now);
  void check_media_ready(Tick now);
  /// Bounded-latency enforcement: when playback drifts beyond
  /// kMaxPlaybackLagSeconds behind the live edge, jump the
  /// buffers and the playout timeline forward to T_p behind the freshest
  /// partner (skipped content is abandoned, not charged — §V-D blindness).
  void maybe_resync_forward(Tick now);
  void server_feed(Tick now);
  void do_gossip();
  void drop_worst_partner();
  /// When Params::partner_silence_timeout > 0, drops every partner whose
  /// buffer map has been silent past the timeout (phantom partnerships
  /// left by lost establishment messages, or partners whose crash
  /// notification never arrived).
  void enforce_partner_silence(Tick now);

  /// The K parent slots in use (the arrays below hold kMaxSubstreams).
  std::span<const net::NodeId> parents() const noexcept {
    return {parents_.data(), static_cast<std::size_t>(sync_.substream_count())};
  }

  // Scalar state, ordered by alignment (8-byte fields, then the
  // phase/flag bytes) so the only padding is the tail.
  PeerSpec spec_;
  units::SessionId session_id_{};
  Tick joined_at_;

  // join state
  OptionalTick first_bm_at_;

  // playout state
  GlobalSeq play_start_seq_ = kNoSeq;
  Tick play_start_time_{-1.0};  ///< shifts forward across stalls
  GlobalSeq last_deadline_counted_ = kNoSeq;
  GlobalSeq stalled_on_ = kNoSeq;  ///< block the player waits for

  // timers (absolute next-due times; staggered by a per-peer phase offset)
  Tick next_bm_push_;
  Tick next_gossip_;
  Tick next_adaptation_;
  Tick next_refill_;
  Tick next_report_;
  Tick last_adaptation_{-1.0e18};
  Tick last_resync_{-1.0e18};

  // reporting accumulators (since last status report)
  std::uint64_t interval_due_ = 0;
  std::uint64_t interval_on_time_ = 0;
  units::Bytes interval_bytes_up_{};
  units::Bytes interval_bytes_down_{};

  PeerStats stats_;

  PeerPhase phase_ = PeerPhase::kJoining;
  bool start_decided_ = false;
  bool start_sub_emitted_ = false;
  bool had_incoming_ = false;
  bool had_outgoing_ = false;

  // Back-reference to the *owning* System only: a peer never outlives its
  // shard, and partners are addressed by net::NodeId, never by pointer.
  System& sys_;  // lint:allow(cross-peer-ptr)
  net::NodeId id_;

  // Per-lane state, inline and K lanes in use.  A lane's head (in sync_)
  // and its parent sit next to each other: the rate phase reads both for
  // every child it serves, and the apply phase adds the credit.
  SyncBuffer sync_;
  std::array<net::NodeId, kMaxSubstreams> parents_;  ///< parent per lane
  std::array<double, kMaxSubstreams> credits_;  ///< fractional blocks per lane
  std::array<Tick, kMaxSubstreams> sub_since_;  ///< subscription start per lane

  /// The peer's private random stream, derived from the run's root seed
  /// via Rng::stream(sim::peer_stream_tag(id)).  Every random decision the
  /// protocol makes for this node draws from here, so the decisions are
  /// identical no matter which shard (or how many shards) evaluates it.
  /// Mutable: select_parent() is logically const but breaks ties randomly.
  mutable sim::Rng rng_;

  Mcache mcache_;
  PartnerTable partners_;
  std::vector<OutLink> out_links_;     ///< children we push to

  /// An in-flight partnership attempt.  Timestamped so that attempts whose
  /// confirm/reject was lost by the network can be aged out (a bare counter
  /// would leak and under-fill the partner set forever); targeted so that
  /// candidate sampling never re-dials a node we are already dialing.
  struct PendingAttempt {
    Tick started;
    net::NodeId to;
  };
  std::vector<PendingAttempt> pending_attempts_;

  /// Whether the next partner change goes into interval_changes_.
  bool records_partner_changes() const noexcept;

  bool has_pending_attempt(net::NodeId to) const noexcept;
  void clear_pending_attempt(net::NodeId to);

  /// Blocks skipped forward past a parent's buffer window; they count as
  /// missed when their playback deadline passes.
  struct SkipRange {
    SubstreamId substream;
    SeqNum from;  ///< first skipped sequence number (inclusive)
    SeqNum to;    ///< last skipped sequence number (inclusive)
  };
  std::vector<SkipRange> skips_;

  /// Partner changes since the last status report; recorded only when a
  /// log server is attached, the one reader of partner reports.
  std::vector<logging::PartnerChange> interval_changes_;
};

}  // namespace coolstream::core
