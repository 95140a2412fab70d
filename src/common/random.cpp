#include "common/random.hpp"

#include "common/assert.hpp"

#include <cmath>
#include <numbers>

namespace qvg {

namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

void Rng::reseed(std::uint64_t seed) {
  std::uint64_t s = seed;
  for (auto& word : state_) word = splitmix64(s);
  has_cached_normal_ = false;
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(state_[0] + state_[3], 23) + state_[0];
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

double Rng::uniform() {
  // 53 high-quality bits -> double in [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  QVG_EXPECTS(lo <= hi);
  return lo + (hi - lo) * uniform();
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  QVG_EXPECTS(lo <= hi);
  const auto range = static_cast<std::uint64_t>(hi - lo) + 1;
  if (range == 0) return static_cast<std::int64_t>(next_u64());  // full range
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = (~0ULL) - (~0ULL) % range;
  std::uint64_t draw = next_u64();
  while (draw >= limit) draw = next_u64();
  return lo + static_cast<std::int64_t>(draw % range);
}

double Rng::normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  // Box-Muller: two uniforms -> two independent normals.
  double u1 = uniform();
  while (u1 <= 0.0) u1 = uniform();
  const double u2 = uniform();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double angle = 2.0 * std::numbers::pi * u2;
  cached_normal_ = radius * std::sin(angle);
  has_cached_normal_ = true;
  return radius * std::cos(angle);
}

double Rng::normal(double mean, double stddev) {
  QVG_EXPECTS(stddev >= 0.0);
  return mean + stddev * normal();
}

bool Rng::bernoulli(double p) {
  QVG_EXPECTS(p >= 0.0 && p <= 1.0);
  return uniform() < p;
}

Rng Rng::split(std::uint64_t tag) const {
  // Derive a child seed from our state and the tag; mixing through
  // splitmix64 decorrelates the streams.
  std::uint64_t s = state_[0] ^ rotl(state_[2], 13) ^ (tag * 0xd1342543de82ef95ULL);
  return Rng(splitmix64(s));
}

}  // namespace qvg
