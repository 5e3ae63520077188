// Deterministic pseudo-random number generation.
//
// All experiments in this repository must be reproducible from a single
// 64-bit seed, so we ship our own generator (xoshiro256**) instead of
// relying on the unspecified std::default_random_engine.  Distribution
// helpers are implemented here as well because libstdc++'s distributions
// are not guaranteed to be stable across versions.
#pragma once

#include <cstdint>
#include <vector>

#include "support/error.hpp"

namespace rrsn {

class DynamicBitset;

/// xoshiro256** by Blackman & Vigna — fast, high-quality, 2^256-1 period.
/// Seeded through splitmix64 so that any 64-bit seed (including 0) yields
/// a well-mixed state.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) { reseed(seed); }

  /// Re-initializes the state from a 64-bit seed via splitmix64.
  void reseed(std::uint64_t seed);

  /// Raw 64 random bits.
  std::uint64_t next();

  // UniformRandomBitGenerator interface (usable with std::shuffle).
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }
  result_type operator()() { return next(); }

  /// Uniform integer in [0, bound).  bound must be > 0.
  /// Uses Lemire's multiply-shift rejection method (unbiased).
  std::uint64_t below(std::uint64_t bound);

  /// Uniform integer in the closed interval [lo, hi].
  std::int64_t range(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [0, 1) with 53 bits of randomness.
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Bernoulli trial with probability p (clamped to [0,1]).
  bool chance(double p);

  /// Number of successes of n independent Bernoulli(p) trials.
  /// Exact (per-trial) for small n, BTPE-free inversion for the rest;
  /// deterministic for a given state.
  std::uint64_t binomial(std::uint64_t n, double p);

  /// Fisher–Yates shuffle of a vector.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(below(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  /// k distinct indices drawn uniformly from [0, n).  k must be <= n.
  /// O(k) expected draws via Floyd's algorithm; result is sorted.  The
  /// draw sequence depends only on (n, k, state), never on the backing
  /// container, so all sampleIndices* variants are interchangeable
  /// without perturbing downstream randomness.
  std::vector<std::size_t> sampleIndices(std::size_t n, std::size_t k);

  /// Same draws as sampleIndices(n, k), but marks the chosen positions
  /// in `out` (reset to n zero bits first) instead of materializing an
  /// index vector — O(n/64 + k) time, no per-element allocation.  The
  /// preferred form when the caller wants a bit-parallel representation
  /// (dense genomes) or k is a sizable fraction of n.
  void sampleIndicesInto(std::size_t n, std::size_t k, DynamicBitset& out);

 private:
  std::uint64_t s_[4];
};

}  // namespace rrsn
