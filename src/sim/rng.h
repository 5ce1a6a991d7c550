// Deterministic random number generation for the simulator.
//
// Every simulation run is a pure function of a 64-bit seed.  We deliberately
// avoid std::mt19937 + std::*_distribution because their outputs are not
// guaranteed to be identical across standard library implementations; all
// generators and distributions here are specified bit-exactly so that traces
// and test expectations are portable.
//
// Rng is xoshiro256++ seeded via splitmix64.  Independent streams for
// subsystems and peers are derived with Rng::stream(tag), which mixes the
// parent seed and the tag through splitmix64, so streams do not overlap in
// practice.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

namespace coolstream::sim {

/// Splitmix64 step: the canonical 64-bit mixing function used for seeding.
/// Advances `state` and returns the next value of the sequence.
std::uint64_t splitmix64_next(std::uint64_t& state) noexcept;

/// xoshiro256++ pseudo random generator with distribution helpers.
///
/// All methods are deterministic given the seed, and the implementation is
/// self-contained so results are identical on every platform.
class Rng {
 public:
  /// Constructs a generator whose state is derived from `seed` via
  /// splitmix64 (as recommended by the xoshiro authors).
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept;

  /// Next raw 64-bit output.
  std::uint64_t next_u64() noexcept;

  /// Uniform double in [0, 1).  Uses the top 53 bits of next_u64().
  double uniform() noexcept;

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept;

  /// Uniform integer in [0, n).  `n` must be > 0.  Uses Lemire's unbiased
  /// bounded generation.
  std::uint64_t below(std::uint64_t n) noexcept;

  /// Uniform integer in [lo, hi] inclusive.  Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept;

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool chance(double p) noexcept;

  /// Exponential variate with the given mean (mean = 1/rate, must be > 0).
  double exponential(double mean) noexcept;

  /// Lognormal variate where `mu`/`sigma` parameterize the underlying
  /// normal distribution.
  double lognormal(double mu, double sigma) noexcept;

  /// Standard normal variate (Box-Muller; consumes two uniforms every
  /// other call and caches the second value).
  double normal() noexcept;

  /// Normal variate with given mean and standard deviation.
  double normal(double mean, double stddev) noexcept;

  /// Samples an index in [0, weights.size()) proportionally to
  /// `weights` (non-negative, not all zero).
  std::size_t weighted(std::span<const double> weights) noexcept;

  /// Fisher-Yates shuffle of `items`.
  template <typename T>
  void shuffle(std::vector<T>& items) noexcept {
    for (std::size_t i = items.size(); i > 1; --i) {
      using std::swap;
      swap(items[i - 1], items[below(i)]);
    }
  }

  /// Picks k distinct indices uniformly from [0, n) (k <= n), in random
  /// order, into a caller-owned buffer (cleared first).  O(k) expected
  /// time via Floyd's algorithm; no allocation once the buffer's capacity
  /// is warm.
  void sample_indices_into(std::size_t n, std::size_t k,
                           std::vector<std::size_t>& out);

  /// Derives an independent child generator keyed by `tag`, without
  /// touching this generator's state.  The same
  /// (seed, tag) pair always yields the same stream, and streams with
  /// different tags are statistically independent — use for decoupling
  /// subsystems (fault injection, churn, workload) that must not perturb
  /// each other's draws.
  Rng stream(std::uint64_t tag) const noexcept;

  /// The seed this generator was constructed with (derived generators
  /// report their derived seed).
  std::uint64_t seed() const noexcept { return seed_; }

 private:
  std::array<std::uint64_t, 4> s_{};
  std::uint64_t seed_ = 0;
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace coolstream::sim
