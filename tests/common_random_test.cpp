#include "common/error.hpp"
#include "common/random.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

namespace qvg {
namespace {

TEST(RngTest, DeterministicForSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next_u64() == b.next_u64() ? 1 : 0;
  EXPECT_LT(same, 2);
}

TEST(RngTest, ReseedRestartsStream) {
  Rng a(99);
  std::vector<std::uint64_t> first;
  for (int i = 0; i < 10; ++i) first.push_back(a.next_u64());
  a.reseed(99);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(a.next_u64(), first[static_cast<std::size_t>(i)]);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformRangeRespected) {
  Rng rng(8);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-2.5, 3.5);
    EXPECT_GE(u, -2.5);
    EXPECT_LT(u, 3.5);
  }
}

TEST(RngTest, UniformMeanIsCentered) {
  Rng rng(9);
  double acc = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) acc += rng.uniform();
  EXPECT_NEAR(acc / n, 0.5, 0.01);
}

TEST(RngTest, UniformIntCoversRangeInclusive) {
  Rng rng(10);
  std::vector<int> seen(6, 0);
  for (int i = 0; i < 6000; ++i) {
    const auto v = rng.uniform_int(0, 5);
    ASSERT_GE(v, 0);
    ASSERT_LE(v, 5);
    ++seen[static_cast<std::size_t>(v)];
  }
  for (int count : seen) EXPECT_GT(count, 800);
}

TEST(RngTest, UniformIntSingleValue) {
  Rng rng(11);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.uniform_int(4, 4), 4);
}

TEST(RngTest, NormalMomentsMatch) {
  Rng rng(12);
  const int n = 200000;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.03);
}

TEST(RngTest, NormalScaleAndShift) {
  Rng rng(13);
  const int n = 100000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.normal(5.0, 2.0);
  EXPECT_NEAR(sum / n, 5.0, 0.05);
}

TEST(RngTest, BernoulliProbability) {
  Rng rng(14);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, BernoulliDegenerate) {
  Rng rng(15);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(RngTest, ContractViolationsThrow) {
  Rng rng(18);
  EXPECT_THROW(rng.uniform(3.0, 1.0), ContractViolation);
  EXPECT_THROW(rng.normal(0.0, -1.0), ContractViolation);
  EXPECT_THROW(rng.bernoulli(1.5), ContractViolation);
}

}  // namespace
}  // namespace qvg
