// Control case for compile_fail/callback_exceeds_inline_size.cpp: the same
// program with a capture exactly the size of the in-record buffer, compiled
// with the identical command line.  If this case fails, the harness (or
// sim/event_queue.h on its own) is broken and that WILL_FAIL result is
// vacuous.
#include "sim/event_queue.h"

int main() {
  using coolstream::sim::EventQueue;
  struct Capture {
    unsigned char bytes[coolstream::sim::detail::InlineFn::kInlineSize];
  };
  EventQueue q;
  Capture c{};
  q.schedule(coolstream::sim::Time(1.0), [c] { (void)c; });
  return 0;
}
