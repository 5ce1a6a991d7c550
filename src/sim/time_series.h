// Time-series recording for the measurement pipeline: StepCounter tracks
// a piecewise-constant counter (concurrent viewers) and samples it onto a
// fixed grid, which is how the users-vs-time figure is produced.
#pragma once

#include <utility>
#include <vector>

#include "sim/event_queue.h"  // for Time

namespace coolstream::sim {

/// A single (time, value) observation.
struct Sample {
  Time time{};
  double value = 0.0;
};

/// Tracks a piecewise-constant counter (e.g. "number of concurrent users")
/// and samples it onto a fixed grid for plotting.
class StepCounter {
 public:
  /// Applies a delta (+1 join, -1 leave) at time `t` (non-decreasing).
  void add(Time t, int delta);

  /// Current counter value.
  long long value() const noexcept { return value_; }

  /// The full step function as (time, value-after-step) samples.
  const std::vector<std::pair<Time, long long>>& steps() const noexcept {
    return steps_;
  }

  /// Samples the step function every `dt` over [t0, t1].
  std::vector<Sample> sample_grid(Time t0, Time t1, Duration dt) const;

  /// Maximum value attained at or before `t1`.
  long long peak(Time t1 = Time::max()) const;

 private:
  long long value_ = 0;
  std::vector<std::pair<Time, long long>> steps_;
};

}  // namespace coolstream::sim
