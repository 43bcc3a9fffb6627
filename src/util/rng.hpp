// Seeded random number generation.
//
// Every stochastic component of the library (input dither, correlated draws
// in input-correlated TBR, random test matrices) draws from an explicitly
// seeded Rng so that experiments are reproducible bit-for-bit.
#pragma once

#include <cstdint>
#include <random>
#include <vector>

namespace pmtbr {

/// Deterministic random source wrapping a 64-bit Mersenne twister.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull) : engine_(seed) {}

  /// Uniform double in [lo, hi).
  double uniform(double lo = 0.0, double hi = 1.0);

  /// Standard normal draw scaled to the given mean / standard deviation.
  double normal(double mean = 0.0, double stddev = 1.0);

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Vector of n independent normal draws.
  std::vector<double> normal_vec(std::size_t n, double mean = 0.0, double stddev = 1.0);

  /// Fisher–Yates shuffle of indices 0..n-1.
  std::vector<std::size_t> permutation(std::size_t n);

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace pmtbr
