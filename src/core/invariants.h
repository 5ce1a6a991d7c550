// Runtime protocol-invariant auditor.
//
// The paper's measurable claims rest on structural properties the protocol
// is supposed to maintain at all times: partnerships are symmetric
// (§III-B), every sub-stream has at most one serving parent (§III-C),
// buffer maps never advertise blocks the owner does not have (§III-C),
// synchronization-buffer heads only move forward, and every block a parent
// uploads is a block some child downloads (flow conservation behind
// Eqs. 3-6).  Silent violations of any of these would invalidate the
// figures while leaving the run superficially plausible — so this auditor
// walks the whole System and verifies them explicitly.
//
// Usage:
//   * One-shot:  InvariantAuditor(sys).audit() returns every violation.
//   * Periodic:  auditor.start(period) schedules an audit every `period`
//     simulated seconds; by default a violation prints and aborts (fail
//     fast, like nano-node's debug asserts), or set `on_violations` to
//     collect them instead.
//   * Per run: set SystemConfig::audit_period > 0; System::start() then
//     attaches an auditor automatically.  The default 0 attaches none.
//
// The audit never draws from the simulation RNG and never mutates protocol
// state, so enabling it cannot change a run's trajectory — determinism
// tests stay bit-identical with auditing on.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/stream_types.h"
#include "net/types.h"
#include "sim/event_queue.h"

namespace coolstream::core {

class System;
class Peer;
class Mcache;
class PartnerTable;
struct SystemStats;

/// The structural properties the auditor verifies.
enum class InvariantRule : unsigned char {
  kPartnerSymmetry = 0,   ///< A lists B <=> B lists A (§III-B)
  kSingleParent = 1,      ///< one serving out-link per (child, sub-stream)
  kBufferMapAgreement = 2, ///< advertised BMs within owner heads / encoder edge
  kSyncMonotonic = 3,     ///< heads, combined prefix, byte counters forward-only
  kBlockConservation = 4, ///< sum(up) == sum(down) == blocks * block size
  kCensus = 5,            ///< live census; Peer::alive() matches System::is_live()
  kEventQueue = 6,        ///< slab/heap/free-list consistency
  kTeardown = 7,          ///< departed peers fully dismantled
};

inline constexpr int kInvariantRuleCount = 8;

/// Stable identifier ("partner-symmetry", ...) for reports and tests.
const char* to_string(InvariantRule rule) noexcept;

/// One detected violation.
struct InvariantViolation {
  InvariantRule rule;
  net::NodeId node = net::kInvalidNode;   ///< primary node (if any)
  net::NodeId other = net::kInvalidNode;  ///< counterpart node (if any)
  std::string detail;                     ///< human-readable description
};

/// "rule node=3 other=7: detail" formatting for logs and assertions.
std::string to_string(const InvariantViolation& v);

/// Walks a System and checks every invariant.  Stateful: monotonicity
/// checks compare against the snapshot taken by the previous audit() call
/// on the same auditor instance.
class InvariantAuditor {
 public:
  explicit InvariantAuditor(System& system);
  ~InvariantAuditor();

  InvariantAuditor(const InvariantAuditor&) = delete;
  InvariantAuditor& operator=(const InvariantAuditor&) = delete;

  /// Runs a full audit pass now and returns the violations found (empty
  /// when every invariant holds).  Updates the monotonicity snapshot.
  std::vector<InvariantViolation> audit();

  /// Schedules audit() every `period` of simulated time (first run after
  /// one period).  Violations are handed to `on_violations`; the default
  /// handler prints them and aborts.
  void start(Duration period);
  void stop();

  /// Replaceable violation sink for the periodic mode.
  std::function<void(const std::vector<InvariantViolation>&)> on_violations;

  std::uint64_t audits_run() const noexcept { return audits_; }
  std::uint64_t violations_seen() const noexcept { return violations_; }

 private:
  struct NodeSnapshot {
    std::vector<SeqNum> heads;
    GlobalSeq combined = kNoSeq;
    units::Bytes bytes_up{};
    units::Bytes bytes_down{};
  };

  void check_peer(const Peer& p, std::vector<InvariantViolation>* out);
  void check_global(std::vector<InvariantViolation>* out,
                    std::size_t live_seen);

  // The auditor inspects exactly one System (its own shard); peers inside
  // it are still addressed by node id when snapshots are compared.
  System& sys_;  // lint:allow(cross-peer-ptr)
  sim::EventHandle handle_;
  std::uint64_t audits_ = 0;
  std::uint64_t violations_ = 0;
  std::vector<NodeSnapshot> snap_;  ///< indexed by node id
};

/// Seeded-corruption hooks for the auditor's own tests: grants the test
/// suite just enough access to protocol internals to plant each class of
/// violation (asymmetric partnership, double-parent sub-stream, forged
/// buffer map, rewound head, leaked bytes) and assert the audit
/// reports it.  Never used outside tests.
struct InvariantTestAccess {
  static PartnerTable& partners(Peer& p);
  /// Forces sub-stream `j`'s contiguous head to `seq` even if that moves
  /// it backwards (something the real SyncBuffer API cannot do).
  static void rewind_head(Peer& p, SubstreamId j, SeqNum seq);
  static SystemStats& stats(System& sys);
  /// Puts departed node `id` back on the System's live list (as if a leave
  /// had been lost), without reviving the peer itself.
  static void relist(System& sys, net::NodeId id);
  /// Fires one gossip round from `p` right now, bypassing the gossip
  /// timer.  Used by the allocation-counting tier to bracket the
  /// sample_into / message send path with heap counters.
  static void do_gossip(Peer& p);
  /// The peer's mCache, writable (to observe repeated gossip deliveries).
  static Mcache& mcache(Peer& p);
  /// The peer's next periodic BM exchange time (settable, so a test can
  /// make the exchange fall due on a chosen tick).
  static Tick& next_bm_push(Peer& p);
  /// Stamps a planted partnership of `a` and `b` mutual as of the current
  /// tick, as System does when the second side lists the first (no-op
  /// unless each lists the other).
  static void mark_mutual(System& sys, net::NodeId a, net::NodeId b);
  /// The peer's next adaptation check time (settable, like next_bm_push).
  static Tick& next_adaptation(Peer& p);
  /// Total element capacity of the per-session containers that
  /// Peer::set_left frees (partners, out-links, pending attempts, skips,
  /// partner changes, mCache).
  static std::size_t session_capacity(const Peer& p);
  /// Element capacity of the peer's partner-change history (the changes
  /// its next partner report carries).
  static std::size_t partner_change_capacity(const Peer& p);
  /// Skip ranges the peer still remembers (window gaps shallower than
  /// kResyncSkipSeconds whose blocks are not yet due).
  static std::size_t skip_count(const Peer& p);
  /// When the peer last re-anchored forward on playback lag (not on a deep
  /// window gap, which leaves this time alone).
  static Tick last_resync(const Peer& p);
};

}  // namespace coolstream::core
