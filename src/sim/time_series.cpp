#include "sim/time_series.h"

#include <algorithm>
#include <cassert>

namespace coolstream::sim {

void StepCounter::add(Time t, int delta) {
  assert(steps_.empty() || t >= steps_.back().first);
  value_ += delta;
  steps_.emplace_back(t, value_);
}

std::vector<Sample> StepCounter::sample_grid(Time t0, Time t1,
                                             Duration dt) const {
  assert(dt > Duration::zero() && t1 >= t0);
  std::vector<Sample> out;
  std::size_t i = 0;
  long long current = 0;
  for (Time t = t0; t <= t1 + dt * 0.5; t += dt) {
    while (i < steps_.size() && steps_[i].first <= t) {
      current = steps_[i].second;
      ++i;
    }
    out.push_back(Sample{t, static_cast<double>(current)});
  }
  return out;
}

long long StepCounter::peak(Time t1) const {
  long long best = 0;
  for (const auto& [t, v] : steps_) {
    if (t > t1) break;
    best = std::max(best, v);
  }
  return best;
}

}  // namespace coolstream::sim
