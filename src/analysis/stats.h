// Basic statistics: summaries and empirical CDFs.
//
// All figure pipelines reduce to these primitives: Fig. 6/7 are empirical
// CDFs of delays, Fig. 10 an ECDF and summary of durations and retries,
// Fig. 8/9 bucketed means.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace coolstream::analysis {

/// Five-number-ish summary of a sample.
struct Summary {
  std::size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double max = 0.0;
  double median = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
};

/// Computes a Summary (empty input yields all zeros).
Summary summarize(std::span<const double> values);

/// Pearson correlation coefficient of two equal-length samples; 0 when
/// fewer than two points or when either sample is constant.
double pearson(std::span<const double> x, std::span<const double> y);

/// Empirical cumulative distribution function.
class Ecdf {
 public:
  Ecdf() = default;
  explicit Ecdf(std::vector<double> values);

  std::size_t size() const noexcept { return sorted_.size(); }
  bool empty() const noexcept { return sorted_.empty(); }

  /// P(X <= x); 0 for empty samples.
  double at(double x) const noexcept;

  /// Inverse CDF; q in [0, 1].  Uses the nearest-rank method.
  double quantile(double q) const;

  const std::vector<double>& sorted() const noexcept { return sorted_; }

 private:
  std::vector<double> sorted_;
};

}  // namespace coolstream::analysis
