#include "common/error.hpp"
#include "linalg/stats.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

namespace qvg {
namespace {

TEST(StatsTest, PercentileInterpolates) {
  const std::vector<double> v{10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 40.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 25.0);
  EXPECT_DOUBLE_EQ(percentile(v, 25), 17.5);
}

// The selection-based implementation (nth_element + right-partition min)
// must return exactly what a full sort would: the interpolation endpoints
// are order statistics, which are value-deterministic even with duplicates.
TEST(StatsTest, PercentileMatchesSortOracle) {
  std::mt19937_64 rng(991);
  std::uniform_real_distribution<double> dist(-10.0, 10.0);
  std::uniform_int_distribution<int> dup(0, 3);
  for (std::size_t size : {2u, 3u, 7u, 64u, 1000u}) {
    std::vector<double> v(size);
    for (double& x : v) x = dist(rng);
    // Inject duplicate runs so ties exercise the partition boundary.
    for (std::size_t i = 1; i < size; ++i)
      if (dup(rng) == 0) v[i] = v[i / 2];
    std::vector<double> sorted = v;
    std::sort(sorted.begin(), sorted.end());
    for (double p : {0.0, 1.0, 12.5, 50.0, 80.0, 92.0, 99.0, 100.0}) {
      const double pos = p / 100.0 * static_cast<double>(size - 1);
      const auto lo = static_cast<std::size_t>(pos);
      const std::size_t hi = std::min(lo + 1, size - 1);
      const double frac = pos - static_cast<double>(lo);
      const double oracle = sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
      EXPECT_EQ(percentile(v, p), oracle) << "size=" << size << " p=" << p;
    }
  }
}

TEST(StatsTest, PercentileValidation) {
  EXPECT_THROW((void)percentile({}, 50), ContractViolation);
  EXPECT_THROW((void)percentile({1.0}, -1), ContractViolation);
  EXPECT_THROW((void)percentile({1.0}, 101), ContractViolation);
}

}  // namespace
}  // namespace qvg
