// Seeded, schedule-driven fault injection for the simulator.
//
// The paper's central figures describe Coolstreaming *under stress* —
// flash-crowd joins, abrupt departures, overloaded parents triggering the
// Ineq. 1/2 adaptation — yet a clean arrival/departure trace exercises
// none of the repair paths.  This layer injects the network-plane half of
// that stress (the workload half — churn bursts and mass departures —
// lives in workload::ChurnDriver):
//
//   * message faults  : loss, duplication and bounded delay jitter at the
//                       net::Transport boundary (jitter of independent
//                       messages is what produces reordering);
//   * capacity faults : a node's upload capacity multiplied by a factor
//                       during a window (overloaded / throttled parents);
//   * flap faults     : a node refuses *new* inbound connections during a
//                       window (NAT mapping lost, gateway rebooted).
//
// Everything is expressed as typed FaultSchedule entries over units::Tick
// windows, serializable to a line-oriented text format so a failing
// schedule found by the property harness is replayable from a file.
//
// Determinism contract: the injector owns its own Rng — it never draws
// from the simulation's root generator — so attaching an injector with an
// empty schedule (or none at all) leaves every existing seeded run
// bit-identical.  Fault injection is off by default everywhere: a null
// injector pointer costs one branch on the transport path.
//
// This header is sim-layer: it depends only on core/units.h and sim::Rng,
// so net and core may consult it without violating the module layering.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/units.h"
#include "sim/rng.h"

namespace coolstream::sim {

/// Node reference in a fault schedule.  Matches net::NodeId's
/// representation (sim cannot include net); kFaultAnyNode is the wildcard.
using FaultNode = std::uint32_t;
inline constexpr FaultNode kFaultAnyNode = 0xffffffffu;

/// Half-open activity window [start, end) on the simulation clock.
struct FaultWindow {
  units::Tick start{};
  units::Tick end{};

  bool contains(units::Tick t) const noexcept {
    return t >= start && t < end;
  }
  friend bool operator==(const FaultWindow&, const FaultWindow&) = default;
};

/// Control-plane message fault: each message whose endpoints match `node`
/// (or any message, for the wildcard) while the window is active is
/// independently dropped with `drop`, duplicated with `dup`, and delayed
/// by Uniform(0, max_jitter) with `jitter`.
struct MessageFault {
  FaultWindow window;
  FaultNode node = kFaultAnyNode;  ///< matches sender or receiver
  double drop = 0.0;
  double dup = 0.0;
  double jitter = 0.0;
  units::Duration max_jitter = units::Duration(0.5);

  friend bool operator==(const MessageFault&, const MessageFault&) = default;
};

/// Upload-capacity degradation: the node's uplink is multiplied by
/// `factor` (0 = dead uplink, 1 = no-op) while the window is active.
/// Overlapping faults multiply.
struct CapacityFault {
  FaultWindow window;
  FaultNode node = kFaultAnyNode;  ///< wildcard = every node
  double factor = 1.0;

  friend bool operator==(const CapacityFault&, const CapacityFault&) = default;
};

/// Connectivity flap: the node refuses new inbound connections while the
/// window is active (existing partnerships keep flowing, as with a real
/// NAT whose established mappings outlive the listener).
struct FlapFault {
  FaultWindow window;
  FaultNode node = kFaultAnyNode;

  friend bool operator==(const FlapFault&, const FlapFault&) = default;
};

/// A complete, replayable network-plane fault scenario.
struct FaultSchedule {
  std::vector<MessageFault> messages;
  std::vector<CapacityFault> capacities;
  std::vector<FlapFault> flaps;

  bool empty() const noexcept {
    return messages.empty() && capacities.empty() && flaps.empty();
  }
  std::size_t size() const noexcept {
    return messages.size() + capacities.size() + flaps.size();
  }

  /// Line-oriented text form:
  ///   msg <start> <end> <node|*> <drop> <dup> <jitter> <max_jitter>
  ///   cap <start> <end> <node|*> <factor>
  ///   flap <start> <end> <node>
  /// Blank lines and lines starting with '#' are ignored.
  std::string to_text() const;

  /// Parses to_text() output (unknown verbs are an error so that churn
  /// schedules can safely embed fault lines).  Returns nullopt on
  /// malformed input.
  static std::optional<FaultSchedule> parse(const std::string& text);

  friend bool operator==(const FaultSchedule&, const FaultSchedule&) = default;
};

/// What the transport should do with one message.
struct MessageDecision {
  bool drop = false;
  bool duplicate = false;
  units::Duration extra_delay{};      ///< jitter added to the real copy
  units::Duration duplicate_delay{};  ///< jitter added to the duplicate
};

/// Fault counters, for tests and bench reporting.
struct FaultCounters {
  std::uint64_t messages_seen = 0;  ///< messages sent while any fault active
  std::uint64_t dropped = 0;
  std::uint64_t duplicated = 0;
  std::uint64_t jittered = 0;
};

/// Replays a FaultSchedule against a run.  Decision helpers are
/// deterministic functions of (seed, schedule, call sequence); the pure
/// state queries (capacity_factor, inbound_blocked) never draw.
class FaultInjector {
 public:
  explicit FaultInjector(std::uint64_t seed, FaultSchedule schedule = {});

  /// Consulted by net::Transport for every control message.  Draws from
  /// the injector's private Rng only while a matching window is active.
  MessageDecision on_message(units::Tick now, FaultNode from, FaultNode to);

  /// Product of the factors of every capacity fault covering `node` at
  /// `now` (clamped to >= 0); 1.0 when none.  Pure.
  double capacity_factor(units::Tick now, FaultNode node) const noexcept;

  /// True when a flap fault currently blocks new inbound connections to
  /// `node`.  Pure.
  bool inbound_blocked(units::Tick now, FaultNode node) const noexcept;

  const FaultSchedule& schedule() const noexcept { return schedule_; }
  const FaultCounters& counters() const noexcept { return counters_; }
  std::uint64_t seed() const noexcept { return seed_; }

 private:
  FaultSchedule schedule_;
  Rng rng_;
  std::uint64_t seed_;
  FaultCounters counters_;
};

}  // namespace coolstream::sim
