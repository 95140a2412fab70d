// round_half_away must give std::llround's integer for every input: ties
// away from zero, signed zeros, the largest double below 0.5, the 2^52
// boundary where the fast path hands over, and the non-finite inputs that
// take the std::llround fallback.
#include "common/rounding.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

namespace qvg {
namespace {

void expect_matches_llround(double x) {
  if (std::isfinite(x)) {
    EXPECT_EQ(round_half_away(x), std::llround(x)) << std::hexfloat << x;
  } else {
    // llround of a non-finite value is unspecified; the fallback must give
    // whatever this platform's llround gives.
    const long long want = std::llround(x);
    EXPECT_EQ(round_half_away(x), want) << x;
  }
}

TEST(RoundHalfAwayTest, TiesRoundAwayFromZero) {
  for (double x : {0.5, 1.5, 2.5, -0.5, -1.5, -2.5}) expect_matches_llround(x);
  EXPECT_EQ(round_half_away(0.5), 1);
  EXPECT_EQ(round_half_away(2.5), 3);
  EXPECT_EQ(round_half_away(-0.5), -1);
  EXPECT_EQ(round_half_away(-2.5), -3);
}

TEST(RoundHalfAwayTest, SignedZerosAndJustBelowOneHalf) {
  for (double x : {0.0, -0.0, 0.49999999999999994, -0.49999999999999994})
    expect_matches_llround(x);
  EXPECT_EQ(round_half_away(0.49999999999999994), 0);
  EXPECT_EQ(round_half_away(std::nextafter(0.5, 1.0)), 1);
}

TEST(RoundHalfAwayTest, AroundTheFastPathBoundary) {
  constexpr double k52 = 4503599627370496.0;  // 2^52
  constexpr double k53 = 9007199254740992.0;  // 2^53
  for (double x : {k52 - 0.5, -(k52 - 0.5), k52 - 1.5, k52, -k52, k52 + 1.0,
                   k53, -k53, std::nextafter(k52, 0.0)})
    expect_matches_llround(x);
  EXPECT_EQ(round_half_away(k52 - 0.5), 4503599627370496LL);
  EXPECT_EQ(round_half_away(-(k52 - 0.5)), -4503599627370496LL);
}

TEST(RoundHalfAwayTest, NonFiniteInputsTakeTheFallback) {
  expect_matches_llround(std::numeric_limits<double>::infinity());
  expect_matches_llround(-std::numeric_limits<double>::infinity());
  expect_matches_llround(std::numeric_limits<double>::quiet_NaN());
}

TEST(RoundHalfAwayTest, DenseSweepMatchesLlround) {
  // Quarter steps hit every tie and both sides of it; the odd step covers
  // inexact fractions.
  for (int i = -4000; i <= 4000; ++i) {
    expect_matches_llround(0.25 * i);
    expect_matches_llround(0.1 * i + 1e-9);
  }
}

}  // namespace
}  // namespace qvg
