// Atomics are permitted inside the simulation engine (src/sim/): thread
// handoff and instrumentation counters live below the deterministic
// protocol layers.  The linter must be silent.
//
// This file is lint-test data only — it is never compiled.

#include <atomic>

class SweepCounters {
  std::atomic<int> inflight_{0};
  std::atomic<bool> stopping_{false};
};
