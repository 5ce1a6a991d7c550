#include "analysis/stats.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace coolstream::analysis {

Summary summarize(std::span<const double> values) {
  Summary s;
  s.count = values.size();
  if (values.empty()) return s;
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  double sum = 0.0;
  for (double v : sorted) sum += v;
  s.mean = sum / static_cast<double>(sorted.size());
  double sq = 0.0;
  for (double v : sorted) sq += (v - s.mean) * (v - s.mean);
  s.stddev = sorted.size() > 1
                 ? std::sqrt(sq / static_cast<double>(sorted.size() - 1))
                 : 0.0;
  s.min = sorted.front();
  s.max = sorted.back();
  auto rank = [&sorted](double q) {
    const auto n = sorted.size();
    const auto idx = static_cast<std::size_t>(
        std::min<double>(static_cast<double>(n - 1),
                         std::ceil(q * static_cast<double>(n)) - 1.0));
    return sorted[std::max<std::size_t>(idx, 0)];
  };
  s.median = rank(0.5);
  s.p90 = rank(0.9);
  s.p99 = rank(0.99);
  return s;
}

double pearson(std::span<const double> x, std::span<const double> y) {
  assert(x.size() == y.size());
  const std::size_t n = x.size();
  if (n < 2) return 0.0;
  double mx = 0.0;
  double my = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    mx += x[i];
    my += y[i];
  }
  mx /= static_cast<double>(n);
  my /= static_cast<double>(n);
  double sxy = 0.0;
  double sxx = 0.0;
  double syy = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double dx = x[i] - mx;
    const double dy = y[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx <= 0.0 || syy <= 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

Ecdf::Ecdf(std::vector<double> values) : sorted_(std::move(values)) {
  std::sort(sorted_.begin(), sorted_.end());
}

double Ecdf::at(double x) const noexcept {
  if (sorted_.empty()) return 0.0;
  const auto it = std::upper_bound(sorted_.begin(), sorted_.end(), x);
  return static_cast<double>(it - sorted_.begin()) /
         static_cast<double>(sorted_.size());
}

double Ecdf::quantile(double q) const {
  assert(!sorted_.empty());
  assert(q >= 0.0 && q <= 1.0);
  const auto n = static_cast<double>(sorted_.size());
  const auto idx = static_cast<std::size_t>(
      std::clamp(std::ceil(q * n) - 1.0, 0.0, n - 1.0));
  return sorted_[idx];
}

}  // namespace coolstream::analysis
