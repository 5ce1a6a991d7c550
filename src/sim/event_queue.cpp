#include "sim/event_queue.h"

#include <algorithm>
#include <sstream>

namespace coolstream::sim {

// --------------------------------------------------------------------------
// Slab
// --------------------------------------------------------------------------

void EventQueue::grow_slab() {
  auto chunk = std::make_unique<Record[]>(kChunkSize);
  // Chain the fresh records into the free list, lowest slot first so early
  // allocations get low slot numbers (nicer for debugging; irrelevant for
  // ordering, which is by (time, seq)).
  const std::uint32_t base = slot_count_;
  for (std::size_t i = kChunkSize; i-- > 0;) {
    chunk[i].next = free_head_;
    free_head_ = base + static_cast<std::uint32_t>(i);
  }
  chunks_.push_back(std::move(chunk));
  slot_count_ = base + static_cast<std::uint32_t>(kChunkSize);
}

std::uint32_t EventQueue::alloc_slot() {
  if (free_head_ == kNil) grow_slab();
  const std::uint32_t slot = free_head_;
  Record& r = record(slot);
  free_head_ = r.next;
  r.next = kNil;
  return slot;
}

void EventQueue::free_slot(std::uint32_t slot) noexcept {
  Record& r = record(slot);
  r.where = Where::kFree;
  r.periodic = false;
  r.next = free_head_;
  free_head_ = slot;
}

// --------------------------------------------------------------------------
// Scheduling
// --------------------------------------------------------------------------

EventHandle EventQueue::arm(std::uint32_t slot, Time at, bool periodic,
                            Duration period) {
  Record& r = record(slot);
  r.periodic = periodic;
  r.period = period;
  r.base = at;
  r.fires = 0;
  push(slot, at);
  return EventHandle(this, handle_id(slot, r.generation));
}

void EventQueue::fire_periodic(std::uint32_t slot) {
  Record& r = record(slot);
  const std::uint32_t generation = r.generation;
  r.fn();
  // The callback may have cancelled the series (generation bumped) — the
  // record was kept alive for the callback's own frame; retire it now.
  Record& r2 = record(slot);
  if (r2.generation != generation) {
    r2.fn.reset();
    free_slot(slot);
    return;
  }
  ++r2.fires;
  // Absolute arithmetic: occurrence n fires at base + n*period, so rounding
  // error stays bounded instead of accumulating one addition per period.
  push(slot, r2.base + static_cast<double>(r2.fires) * r2.period);
}

// --------------------------------------------------------------------------
// Heap
// --------------------------------------------------------------------------

void EventQueue::push(std::uint32_t slot, Time at) {
  record(slot).where = Where::kHeap;
  heap_.push_back(Entry{at, next_seq_++, slot});
  sift_up(heap_.size() - 1);
}

void EventQueue::remove(std::size_t index) noexcept {
  assert(index < heap_.size());
  record(heap_[index].slot).where = Where::kExecuting;
  const Entry last = heap_.back();
  heap_.pop_back();
  if (index == heap_.size()) return;
  heap_[index] = last;
  if (index > 0 && earlier(last, heap_[(index - 1) / kArity])) {
    sift_up(index);
  } else {
    sift_down(index);
  }
}

// Both sifts carry the moving entry in a hole and write it (and its pos)
// once at its final index.
void EventQueue::sift_up(std::size_t index) noexcept {
  const Entry e = heap_[index];
  while (index > 0) {
    const std::size_t parent = (index - 1) / kArity;
    if (!earlier(e, heap_[parent])) break;
    put(index, heap_[parent]);
    index = parent;
  }
  put(index, e);
}

void EventQueue::sift_down(std::size_t index) noexcept {
  const Entry e = heap_[index];
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t first = index * kArity + 1;
    if (first >= n) break;
    const std::size_t end = std::min(first + kArity, n);
    std::size_t best = first;
    for (std::size_t c = first + 1; c < end; ++c) {
      if (earlier(heap_[c], heap_[best])) best = c;
    }
    if (!earlier(heap_[best], e)) break;
    put(index, heap_[best]);
    index = best;
  }
  put(index, e);
}

// --------------------------------------------------------------------------
// Structural validation
// --------------------------------------------------------------------------

std::string EventQueue::self_check() const {
  std::ostringstream err;
  auto fail = [&err](auto&&... parts) {
    ((err << parts), ...);
    return err.str();
  };

  if (slot_count_ != chunks_.size() * kChunkSize) {
    return fail("slot_count ", slot_count_, " != chunks*", kChunkSize);
  }

  std::vector<bool> seen(slot_count_, false);
  auto claim = [&](std::uint32_t slot) -> bool {
    if (slot >= slot_count_ || seen[slot]) return false;
    seen[slot] = true;
    return true;
  };

  // Heap: positions, states and the heap property.
  for (std::size_t i = 0; i < heap_.size(); ++i) {
    const Entry& e = heap_[i];
    if (!claim(e.slot)) return fail("slot ", e.slot, " linked twice (heap)");
    const Record& r = record(e.slot);
    if (r.where != Where::kHeap) {
      return fail("slot ", e.slot, " in heap but where!=kHeap");
    }
    if (r.pos != i) return fail("heap slot ", e.slot, " pos ", r.pos, " != index ", i);
    if (e.seq >= next_seq_) return fail("heap slot ", e.slot, " seq from the future");
    if (i > 0 && earlier(e, heap_[(i - 1) / kArity])) {
      return fail("heap order violated at index ", i);
    }
  }

  // Free list: no cycles, consistent tags.
  for (std::uint32_t s = free_head_; s != kNil; s = record(s).next) {
    if (!claim(s)) return fail("slot ", s, " linked twice (free list)");
    if (record(s).where != Where::kFree) {
      return fail("slot ", s, " on free list but where!=kFree");
    }
  }

  // Every slot is in exactly one place; the only unclaimed slots allowed
  // are records whose callback frame is live right now (a periodic event
  // mid-fire — e.g. the audit event this check runs from).
  for (std::uint32_t s = 0; s < slot_count_; ++s) {
    if (!seen[s] && record(s).where != Where::kExecuting) {
      return fail("slot ", s, " unaccounted for (where=",
                  static_cast<int>(record(s).where), ")");
    }
  }
  return {};
}

// --------------------------------------------------------------------------
// Handles
// --------------------------------------------------------------------------

void EventQueue::cancel_id(std::uint64_t id) noexcept {
  const auto slot = static_cast<std::uint32_t>(id & 0xFFFFFFFFu);
  const auto generation = static_cast<std::uint32_t>(id >> 32);
  Record& r = record(slot);
  if (r.generation != generation) return;  // already fired / cancelled
  if (r.where == Where::kExecuting) {
    // A periodic callback cancelling its own series: the executing frame
    // owns the record; just mark the series dead so it is not re-linked.
    ++r.generation;
    return;
  }
  remove(r.pos);
  ++r.generation;
  r.fn.reset();
  free_slot(slot);
}

bool EventQueue::pending_id(std::uint64_t id) const noexcept {
  const auto slot = static_cast<std::uint32_t>(id & 0xFFFFFFFFu);
  const auto generation = static_cast<std::uint32_t>(id >> 32);
  return record(slot).generation == generation;
}

}  // namespace coolstream::sim
