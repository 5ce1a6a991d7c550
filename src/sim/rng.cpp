#include "sim/rng.h"

#include <cassert>
#include <cmath>
#include <numbers>

namespace coolstream::sim {
namespace {

constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

std::uint64_t splitmix64_next(std::uint64_t& state) noexcept {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Rng::Rng(std::uint64_t seed) noexcept : seed_(seed) {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64_next(sm);
  // xoshiro256++ requires a non-zero state; splitmix64 cannot produce four
  // zero words from any seed, but guard anyway.
  if (s_[0] == 0 && s_[1] == 0 && s_[2] == 0 && s_[3] == 0) s_[0] = 1;
}

std::uint64_t Rng::next_u64() noexcept {
  const std::uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() noexcept {
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) noexcept {
  return lo + (hi - lo) * uniform();
}

std::uint64_t Rng::below(std::uint64_t n) noexcept {
  assert(n > 0);
  // Lemire's nearly-divisionless unbiased method.
  std::uint64_t x = next_u64();
  unsigned __int128 m = static_cast<unsigned __int128>(x) * n;
  auto l = static_cast<std::uint64_t>(m);
  if (l < n) {
    const std::uint64_t t = (0 - n) % n;
    while (l < t) {
      x = next_u64();
      m = static_cast<unsigned __int128>(x) * n;
      l = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) noexcept {
  assert(lo <= hi);
  const auto span =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
  return lo + static_cast<std::int64_t>(below(span));
}

bool Rng::chance(double p) noexcept {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform() < p;
}

double Rng::exponential(double mean) noexcept {
  assert(mean > 0.0);
  // -log(1-u) with u in [0,1) avoids log(0).
  return -mean * std::log1p(-uniform());
}

double Rng::lognormal(double mu, double sigma) noexcept {
  return std::exp(mu + sigma * normal());
}

double Rng::normal() noexcept {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  // Box-Muller on (0,1] uniforms.
  const double u1 = 1.0 - uniform();
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * std::numbers::pi * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return r * std::cos(theta);
}

double Rng::normal(double mean, double stddev) noexcept {
  return mean + stddev * normal();
}

std::uint64_t Rng::zipf(std::uint64_t n, double s) noexcept {
  assert(n >= 1);
  if (n == 1) return 1;
  // Rejection-inversion sampling (Hörmann & Derflinger 1996).  Handles the
  // s == 1 singularity explicitly.
  const double nd = static_cast<double>(n);
  const auto h = [s](double x) {
    if (s == 1.0) return std::log(x);
    return (std::pow(x, 1.0 - s) - 1.0) / (1.0 - s);
  };
  const auto h_inv = [s](double y) {
    if (s == 1.0) return std::exp(y);
    return std::pow(1.0 + y * (1.0 - s), 1.0 / (1.0 - s));
  };
  const double h_x1 = h(1.5) - 1.0;
  const double h_n = h(nd + 0.5);
  for (;;) {
    const double u = h_x1 + uniform() * (h_n - h_x1);
    const double x = h_inv(u);
    const auto k = static_cast<std::uint64_t>(x + 0.5);
    const double kd = static_cast<double>(k);
    if (k < 1 || k > n) continue;
    // Acceptance test: u >= h(k + 0.5) - k^-s accepts k.
    if (u >= h(kd + 0.5) - std::pow(kd, -s)) return k;
  }
}

std::size_t Rng::weighted(std::span<const double> weights) noexcept {
  double total = 0.0;
  for (double w : weights) total += w;
  assert(total > 0.0);
  double target = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    target -= weights[i];
    if (target < 0.0) return i;
  }
  return weights.size() - 1;  // floating point slack
}

std::vector<std::size_t> Rng::sample_indices(std::size_t n, std::size_t k) {
  std::vector<std::size_t> chosen;
  sample_indices_into(n, k, chosen);
  return chosen;
}

void Rng::sample_indices_into(std::size_t n, std::size_t k,
                              std::vector<std::size_t>& out) {
  assert(k <= n);
  // Floyd's algorithm produces k distinct values; shuffle for random order.
  out.clear();
  out.reserve(k);
  for (std::size_t j = n - k; j < n; ++j) {
    const auto t = static_cast<std::size_t>(below(j + 1));
    bool seen = false;
    for (std::size_t c : out) {
      if (c == t) {
        seen = true;
        break;
      }
    }
    out.push_back(seen ? j : t);
  }
  shuffle(out);
}

Rng Rng::stream(std::uint64_t tag) const noexcept {
  // Two rounds of splitmix64 fully decorrelate the (seed, tag) pair before
  // it seeds the child; a bare XOR would leave nearby tags one bit apart.
  std::uint64_t state = seed_;
  std::uint64_t mixed = splitmix64_next(state);
  state = mixed ^ tag;
  mixed = splitmix64_next(state);
  return Rng(mixed);
}

}  // namespace coolstream::sim
