// Parameterized statistical property checks for the RNG's distributions:
// sample moments must track their closed forms across a parameter grid.
// These guard the workload generator's statistical foundations.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <vector>

#include "sim/rng.h"

namespace coolstream::sim {
namespace {

constexpr int kSamples = 40'000;

struct Moments {
  double mean = 0.0;
  double variance = 0.0;
};

template <typename DrawFn>
Moments sample_moments(Rng& rng, DrawFn&& draw) {
  std::vector<double> v;
  v.reserve(kSamples);
  for (int i = 0; i < kSamples; ++i) v.push_back(draw(rng));
  Moments m;
  m.mean = std::accumulate(v.begin(), v.end(), 0.0) / kSamples;
  for (double x : v) m.variance += (x - m.mean) * (x - m.mean);
  m.variance /= kSamples - 1;
  return m;
}

// --- exponential -----------------------------------------------------------

class ExponentialMomentsTest : public ::testing::TestWithParam<double> {};

TEST_P(ExponentialMomentsTest, MeanAndVariance) {
  const double mean = GetParam();
  Rng rng(100 + static_cast<std::uint64_t>(mean * 10));
  const auto m =
      sample_moments(rng, [mean](Rng& r) { return r.exponential(mean); });
  EXPECT_NEAR(m.mean, mean, mean * 0.03);
  EXPECT_NEAR(m.variance, mean * mean, mean * mean * 0.08);
}

INSTANTIATE_TEST_SUITE_P(Grid, ExponentialMomentsTest,
                         ::testing::Values(0.1, 1.0, 5.0, 30.0, 300.0));

// --- lognormal --------------------------------------------------------------

class LognormalMomentsTest
    : public ::testing::TestWithParam<std::pair<double, double>> {};

TEST_P(LognormalMomentsTest, MeanTracksClosedForm) {
  const auto [mu, sigma] = GetParam();
  Rng rng(200 + static_cast<std::uint64_t>(mu * 10 + sigma * 100));
  const auto m = sample_moments(
      rng, [mu, sigma](Rng& r) { return r.lognormal(mu, sigma); });
  const double expected = std::exp(mu + 0.5 * sigma * sigma);
  EXPECT_NEAR(m.mean, expected, expected * 0.1);
}

INSTANTIATE_TEST_SUITE_P(Grid, LognormalMomentsTest,
                         ::testing::Values(std::make_pair(0.0, 0.25),
                                           std::make_pair(1.0, 0.5),
                                           std::make_pair(5.7, 0.6),
                                           std::make_pair(6.9, 1.0)));

// --- normal -----------------------------------------------------------------

class NormalMomentsTest
    : public ::testing::TestWithParam<std::pair<double, double>> {};

TEST_P(NormalMomentsTest, MeanAndStddev) {
  const auto [mean, stddev] = GetParam();
  Rng rng(500 + static_cast<std::uint64_t>(std::abs(mean) + stddev * 10));
  const auto m = sample_moments(
      rng, [mean, stddev](Rng& r) { return r.normal(mean, stddev); });
  EXPECT_NEAR(m.mean, mean, stddev * 0.03 + 1e-9);
  EXPECT_NEAR(std::sqrt(m.variance), stddev, stddev * 0.03);
}

INSTANTIATE_TEST_SUITE_P(Grid, NormalMomentsTest,
                         ::testing::Values(std::make_pair(0.0, 1.0),
                                           std::make_pair(-5.0, 2.0),
                                           std::make_pair(100.0, 25.0)));

}  // namespace
}  // namespace coolstream::sim
