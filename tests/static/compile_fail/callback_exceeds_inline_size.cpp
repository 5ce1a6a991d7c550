// compile-fail: an event callback whose capture is one byte larger than
// the in-record buffer.  Event records store callbacks only in place; a
// larger capture must not compile rather than fall back to the heap.
#include "sim/event_queue.h"

int main() {
  using coolstream::sim::EventQueue;
  struct Capture {
    unsigned char bytes[coolstream::sim::detail::InlineFn::kInlineSize + 1];
  };
  EventQueue q;
  Capture c{};
  q.schedule(coolstream::sim::Time(1.0), [c] { (void)c; });
  return 0;
}
