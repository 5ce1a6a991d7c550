// Control-plane message transport.
//
// Routes control messages between nodes: counts each one and tells the
// sender when its copies arrive, after the pairwise latency and whatever
// the fault plane decides.  It schedules nothing; the System queues the
// deliveries, each carrying its message record.  Control messages
// (gossip, buffer maps, subscribe/unsubscribe) are small; we model their
// propagation delay but not their bandwidth, which is standard for
// overlay simulations — the data plane (sub-stream blocks) is where
// bandwidth is modelled (see core::FlowModel).
//
// The transport also keeps per-category message counters so benches can
// report control overhead.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

#include "net/latency.h"
#include "net/types.h"
#include "sim/fault_injector.h"
#include "sim/simulation.h"

namespace coolstream::net {

/// Categories of control messages, for overhead accounting.
enum class MessageKind : unsigned char {
  kGossip = 0,        ///< membership gossip
  kBufferMap = 1,     ///< periodic BM exchange
  kSubscribe = 2,     ///< sub-stream subscription / unsubscription
  kPartnership = 3,   ///< partnership establishment / teardown
  kReport = 4,        ///< log reports to the log server
};

inline constexpr int kMessageKindCount = 5;

/// Name for a message kind ("gossip", "buffermap", ...).
std::string_view to_string(MessageKind kind) noexcept;

/// When the copies of one sent message arrive, relative to the send: none
/// when the fault plane drops it, two when it duplicates it (the
/// duplicate first).
struct Arrivals {
  std::array<units::Duration, 2> delays{};
  std::size_t count = 0;

  const units::Duration* begin() const noexcept { return delays.data(); }
  const units::Duration* end() const noexcept { return delays.data() + count; }
};

/// Latency and fault routing of control messages between nodes.
class Transport {
 public:
  Transport(const sim::Simulation& simulation, const LatencyModel& latency)
      : sim_(simulation), latency_(latency) {}

  /// Counts one `kind` message from `from` to `to` and returns the delays
  /// after which its copies arrive: the one-way latency of the pair.  With
  /// a fault injector attached the message may instead be dropped,
  /// duplicated, or delayed by bounded jitter (independent jitter of
  /// back-to-back messages is what produces reordering).  Without one,
  /// the cost is a single null check and the result is the fault-free
  /// latency.
  Arrivals route(NodeId from, NodeId to, MessageKind kind);

  /// Attaches (or detaches, with nullptr) a fault injector.  The injector
  /// must outlive the transport or be detached first.
  void attach_faults(sim::FaultInjector* injector) noexcept {
    faults_ = injector;
  }
  sim::FaultInjector* faults() const noexcept { return faults_; }

  /// Accounts for `n` messages whose delivery is modelled synchronously
  /// by the caller (e.g. the periodic buffer-map exchange).
  void count_only(MessageKind kind, std::uint64_t n = 1) noexcept {
    counts_[static_cast<std::size_t>(kind)] += n;
  }

  /// Messages sent so far, by kind.
  std::uint64_t sent(MessageKind kind) const noexcept {
    return counts_[static_cast<std::size_t>(kind)];
  }

  /// Total messages sent.
  std::uint64_t total_sent() const noexcept;

  const LatencyModel& latency() const noexcept { return latency_; }

 private:
  const sim::Simulation& sim_;
  const LatencyModel& latency_;
  sim::FaultInjector* faults_ = nullptr;
  std::array<std::uint64_t, kMessageKindCount> counts_{};
};

}  // namespace coolstream::net
