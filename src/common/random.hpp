// Deterministic, platform-independent random number generation.
//
// std::mt19937 is portable but the standard *distributions* are not
// (libstdc++ and libc++ differ), so benchmark datasets generated through
// std::normal_distribution would not be reproducible across toolchains.
// We therefore implement xoshiro256++ plus our own distribution transforms.
#pragma once

#include <array>
#include <cstdint>

namespace qvg {

/// xoshiro256++ PRNG (Blackman & Vigna). Fast, high quality, tiny state.
/// Seeded through SplitMix64 so that any 64-bit seed gives a good state.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) { reseed(seed); }

  void reseed(std::uint64_t seed);

  /// Uniform 64-bit integer.
  std::uint64_t next_u64();

  // UniformRandomBitGenerator interface (usable with std::shuffle).
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }
  result_type operator()() { return next_u64(); }

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Standard normal via Box-Muller (deterministic given the seed).
  double normal();

  /// Normal with given mean and standard deviation.
  double normal(double mean, double stddev);

  /// Bernoulli trial with success probability p in [0, 1].
  bool bernoulli(double p);

  /// Split off an independently seeded child generator. Children derived
  /// with distinct tags are statistically independent streams.
  [[nodiscard]] Rng split(std::uint64_t tag) const;

 private:
  std::array<std::uint64_t, 4> state_{};
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace qvg
