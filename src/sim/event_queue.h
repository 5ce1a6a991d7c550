// Allocation-free discrete-event queue.
//
// Events are callbacks ordered by (time, insertion sequence).  The secondary
// ordering makes execution order fully deterministic even when many events
// share a timestamp, which matters for reproducible simulations.
//
// Internals (see DESIGN.md, "Event engine internals"):
//   * Event records live in a chunked slab; records never move, and freed
//     slots are recycled through a free list, so the steady state performs
//     zero heap allocations per event.
//   * Callbacks are stored in place, in an 88-byte buffer inside the
//     record: every protocol callback fits, and so does a message delivery
//     that carries its whole control-message record.  A larger capture is
//     a compile error, so no event ever allocates for its callback.
//   * Cancellation tokens are {slot, generation} pairs.  Firing, cancelling
//     or completing an event bumps the slot's generation, so stale handles
//     become inert automatically — no shared_ptr, no reference counting.
//   * Every scheduled event is one {time, seq, slot} entry of a single 4-ary
//     min-heap; the key sits in the heap array, so sifts never read the
//     slab.  schedule, pop and cancel cost O(log n) whatever the shape of
//     the schedule: a tick's burst of thousands of deliveries inside one
//     latency window costs no more than the same events spread out.
//   * cancel() eagerly removes the entry through the record's heap-position
//     back-pointer, so churn-heavy runs never accumulate dead entries.
//   * Periodic events are first-class: one record is reused for the whole
//     series and the n-th occurrence fires at first + n*period computed
//     with absolute arithmetic (no floating-point drift accumulation).
//
// The queue is single-threaded, like the simulation it drives.  Handles
// must not outlive the queue that issued them.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/units.h"

namespace coolstream::sim {

/// Absolute simulation time.  A strong type (units::Tick): points in time
/// and spans (units::Duration) do not mix, and raw doubles do not convert
/// implicitly — see core/units.h.
using Time = units::Tick;

/// A span of simulated time, in seconds.
using Duration = units::Duration;

namespace detail {

/// Type-erased callable stored in place.  Callables up to kInlineSize
/// bytes (every protocol callback, and a delivery carrying its whole
/// control message) live inside the event record; a larger capture does
/// not compile.  Records never move, so neither does an InlineFn.
class InlineFn {
 public:
  static constexpr std::size_t kInlineSize = 88;

  InlineFn() = default;
  InlineFn(const InlineFn&) = delete;
  InlineFn& operator=(const InlineFn&) = delete;
  ~InlineFn() { reset(); }

  template <typename F>
  void emplace(F&& f) {
    using D = std::decay_t<F>;
    static_assert(std::is_invocable_r_v<void, D&>,
                  "event callbacks must be invocable as void()");
    static_assert(sizeof(D) <= kInlineSize &&
                      alignof(D) <= alignof(std::max_align_t),
                  "event callback capture exceeds InlineFn::kInlineSize");
    reset();
    ::new (storage()) D(std::forward<F>(f));
    ops_ = &kOps<D>;
  }

  void operator()() { ops_->invoke(storage()); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(storage());
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke)(void* storage);
    void (*destroy)(void* storage) noexcept;
  };

  template <typename D>
  static D* as(void* s) noexcept {
    return static_cast<D*>(s);
  }

  template <typename D>
  static constexpr Ops kOps{
      [](void* s) { (*as<D>(s))(); },
      [](void* s) noexcept { as<D>(s)->~D(); },
  };

  void* storage() noexcept { return static_cast<void*>(storage_); }

  alignas(std::max_align_t) unsigned char storage_[kInlineSize];
  const Ops* ops_ = nullptr;
};

}  // namespace detail

class EventQueue;

/// Cancellation token for a scheduled event (or periodic series).
/// Copyable value type; all copies refer to the same underlying event via a
/// {slot, generation} pair, so a fired/cancelled event turns every copy
/// inert automatically.  A default-constructed handle is inert.  Handles
/// must not outlive the EventQueue that issued them.
class EventHandle {
 public:
  EventHandle() = default;

  /// Cancels the event (or periodic series) if it has not completed yet.
  /// The record is unlinked eagerly; nothing lingers in the queue.
  /// Idempotent.
  void cancel() noexcept;

  /// True while the event is scheduled or (for periodic series) the series
  /// is still running.  False for default-constructed handles, after the
  /// event fired, and after cancel().
  bool pending() const noexcept;

 private:
  friend class EventQueue;
  EventHandle(EventQueue* queue, std::uint64_t id) noexcept
      : queue_(queue), id_(id) {}

  EventQueue* queue_ = nullptr;
  std::uint64_t id_ = 0;  ///< generation in the high 32 bits, slot in the low
};

/// Indexed min-heap of events keyed by (time, sequence).
class EventQueue {
 public:
  EventQueue() = default;

  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Schedules `fn` to fire once at absolute time `at`.  Returns a handle
  /// that can cancel the event.
  template <typename F>
  EventHandle schedule(Time at, F&& fn) {
    const std::uint32_t slot = alloc_slot();
    record(slot).fn.emplace(std::forward<F>(fn));
    return arm(slot, at, /*periodic=*/false, Duration::zero());
  }

  /// Schedules `fn` to fire at `first`, then every `period` seconds after
  /// (occurrence n fires at exactly first + n*period).  The series reuses a
  /// single slab record: no allocation per occurrence.  The callback runs
  /// before the next occurrence is linked, and cancelling from inside the
  /// callback stops the series.
  template <typename F>
  EventHandle schedule_every(Time first, Duration period, F&& fn) {
    assert(period > Duration::zero());
    const std::uint32_t slot = alloc_slot();
    record(slot).fn.emplace(std::forward<F>(fn));
    return arm(slot, first, /*periodic=*/true, period);
  }

  /// True when no live events remain.
  bool empty() const noexcept { return heap_.empty(); }

  /// Number of live (scheduled, uncancelled) events.  Cancelled events are
  /// removed eagerly, so this is exact.
  std::size_t size() const noexcept { return heap_.size(); }

  /// Timestamp of the earliest live event.  Requires !empty().
  Time next_time() const noexcept {
    assert(!empty());
    return heap_.front().time;
  }

  /// Removes the earliest event, calls `on_fire(time)` (callers use this to
  /// advance their clock), then runs the event callback.  Returns false if
  /// the queue was empty.  For periodic events the next occurrence is
  /// linked after the callback returns, consuming a fresh sequence number —
  /// the same ordering a self-rescheduling callback would produce.
  template <typename OnFire>
  bool run_next(OnFire&& on_fire) {
    if (heap_.empty()) return false;
    const Entry top = heap_.front();
    remove(0);
    const std::uint32_t slot = top.slot;
    Record& r = record(slot);
    on_fire(top.time);
    if (r.periodic) {
      fire_periodic(slot);
    } else {
      // Bump the generation first so handles report !pending() inside the
      // callback.  The callback runs in place in the slab record — records
      // never move and the slot is not on the free list, so re-entrant
      // schedule() calls cannot disturb it.
      ++r.generation;
      r.fn();
      r.fn.reset();
      free_slot(slot);
    }
    return true;
  }

  /// run_next() without a clock observer.
  bool run_next() {
    return run_next([](Time) {});
  }

  /// Exhaustive structural validation of the slab, heap and free list:
  /// every slot accounted for exactly once, heap positions and states
  /// consistent, heap ordered.  Returns an empty string when consistent,
  /// else a description of the first inconsistency.  O(slots); used by the
  /// invariant auditor and the tests, never by the hot path.
  std::string self_check() const;

 private:
  friend class EventHandle;
  friend struct EventQueueTestAccess;  ///< seeded-corruption tests only

  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;
  static constexpr std::size_t kChunkShift = 9;  // 512 records per chunk
  static constexpr std::size_t kChunkSize = std::size_t{1} << kChunkShift;
  static constexpr std::size_t kArity = 4;  ///< children per heap node

  enum class Where : std::uint8_t {
    kFree,       ///< on the free list
    kHeap,       ///< scheduled: heap_[pos] refers to this record
    kExecuting,  ///< popped, callback running (periodic) or being freed
  };

  struct Record {
    std::uint32_t generation = 0;
    std::uint32_t next = kNil;  ///< free list link (kFree only)
    std::uint32_t pos = 0;      ///< heap index (kHeap only)
    Where where = Where::kFree;
    bool periodic = false;
    Duration period{};
    Time base{};              ///< time of the first occurrence
    std::uint64_t fires = 0;  ///< completed occurrences of the series
    detail::InlineFn fn;
  };

  /// Heap entry.  The ordering key is stored inline so sifts compare
  /// contiguous memory and touch a record only to update its `pos`.
  struct Entry {
    Time time;
    std::uint64_t seq;
    std::uint32_t slot;
  };

  Record& record(std::uint32_t slot) noexcept {
    return chunks_[slot >> kChunkShift][slot & (kChunkSize - 1)];
  }
  const Record& record(std::uint32_t slot) const noexcept {
    return chunks_[slot >> kChunkShift][slot & (kChunkSize - 1)];
  }

  static std::uint64_t handle_id(std::uint32_t slot,
                                 std::uint32_t generation) noexcept {
    return (static_cast<std::uint64_t>(generation) << 32) | slot;
  }

  // Slab management.
  std::uint32_t alloc_slot();
  void free_slot(std::uint32_t slot) noexcept;
  void grow_slab();

  // Scheduling internals.
  EventHandle arm(std::uint32_t slot, Time at, bool periodic,
                  Duration period);
  void fire_periodic(std::uint32_t slot);

  // Heap of entries ordered by (time, seq); every move updates record.pos.
  static bool earlier(const Entry& a, const Entry& b) noexcept {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }
  void push(std::uint32_t slot, Time at);
  void remove(std::size_t index) noexcept;
  void sift_up(std::size_t index) noexcept;
  void sift_down(std::size_t index) noexcept;
  void put(std::size_t index, const Entry& e) noexcept {
    heap_[index] = e;
    record(e.slot).pos = static_cast<std::uint32_t>(index);
  }

  // Handle operations (via EventHandle).
  void cancel_id(std::uint64_t id) noexcept;
  bool pending_id(std::uint64_t id) const noexcept;

  std::vector<std::unique_ptr<Record[]>> chunks_;
  std::uint32_t free_head_ = kNil;
  std::uint32_t slot_count_ = 0;

  std::vector<Entry> heap_;
  std::uint64_t next_seq_ = 0;
};

inline void EventHandle::cancel() noexcept {
  if (queue_ != nullptr) queue_->cancel_id(id_);
}

inline bool EventHandle::pending() const noexcept {
  return queue_ != nullptr && queue_->pending_id(id_);
}

}  // namespace coolstream::sim
