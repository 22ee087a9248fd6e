#pragma once
// Deterministic pseudo-random number generation for reproducible experiments.
//
// All stochastic components of the library (synthetic benchmark generators,
// randomized co-simulation, fleet seeds and defects) draw from Rng so that
// every experiment in EXPERIMENTS.md is exactly repeatable from a seed.

#include <cstdint>
#include <vector>

namespace stc {

/// Stateless SplitMix64 finalizer (Steele/Lea/Flood): a bijection on
/// uint64 with full avalanche. Feeding it an injective input stream
/// (e.g. `base + i * odd_constant`) therefore yields pairwise-distinct
/// outputs -- the collision-free-by-construction property the fleet
/// simulator's per-instance seed derivation relies on.
inline std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// xoshiro256** by Blackman & Vigna, seeded through SplitMix64.
/// Small, fast, and good enough statistical quality for workload generation;
/// NOT a cryptographic generator.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) { reseed(seed); }

  /// Re-initialize the full 256-bit state from a 64-bit seed via SplitMix64.
  void reseed(std::uint64_t seed);

  /// Next raw 64-bit value.
  std::uint64_t next();

  /// Uniform value in [0, bound). bound == 0 is treated as 1 (returns 0).
  /// Uses rejection sampling, so the result is exactly uniform.
  std::uint64_t below(std::uint64_t bound);

  /// Uniform value in the inclusive range [lo, hi].
  std::int64_t range(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [0, 1).
  double unit();

  /// Bernoulli trial with probability p (clamped to [0,1]).
  bool chance(double p);

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(below(i));
      std::swap(v[i - 1], v[j]);
    }
  }

  /// Pick a uniformly random element (vector must be non-empty).
  template <typename T>
  const T& pick(const std::vector<T>& v) {
    return v[static_cast<std::size_t>(below(v.size()))];
  }

 private:
  std::uint64_t state_[4] = {};
};

}  // namespace stc
