#include "linalg/nelder_mead.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>

namespace qvg {
namespace {

double sq(double v) { return v * v; }

TEST(NelderMeadTest, QuadraticBowl) {
  auto f = [](const std::array<double, 2>& x) {
    return sq(x[0] - 3.0) + sq(x[1] + 1.0);
  };
  const auto result = minimize_nelder_mead(f, std::array{0.0, 0.0});
  EXPECT_TRUE(result.converged);
  EXPECT_NEAR(result.x[0], 3.0, 1e-4);
  EXPECT_NEAR(result.x[1], -1.0, 1e-4);
  EXPECT_NEAR(result.f, 0.0, 1e-7);
  // Golden pin: bit-exact output of the original std::vector implementation.
  EXPECT_EQ(result.x[0], 0x1.7ffffffffcf88p+1);
  EXPECT_EQ(result.x[1], -0x1.000000000f767p+0);
  EXPECT_EQ(result.f, 0x1.13cccc71p-72);
  EXPECT_EQ(result.iterations, 96);
}

TEST(NelderMeadTest, Rosenbrock2D) {
  auto f = [](const std::array<double, 2>& x) {
    return 100.0 * sq(x[1] - sq(x[0])) + sq(1.0 - x[0]);
  };
  NelderMeadOptions opt;
  opt.max_iterations = 5000;
  const auto result = minimize_nelder_mead(f, std::array{-1.2, 1.0}, opt);
  EXPECT_NEAR(result.x[0], 1.0, 1e-3);
  EXPECT_NEAR(result.x[1], 1.0, 1e-3);
  // Golden pin: bit-exact output of the original std::vector implementation.
  EXPECT_EQ(result.x[0], 0x1.0000000005318p+0);
  EXPECT_EQ(result.x[1], 0x1.0000000007e9dp+0);
  EXPECT_EQ(result.f, 0x1.3f5e39a2p-71);
  EXPECT_EQ(result.iterations, 119);
}

TEST(NelderMeadTest, OneDimensional) {
  auto f = [](const std::array<double, 1>& x) { return std::cos(x[0]); };
  const auto result = minimize_nelder_mead(f, std::array{3.0});
  EXPECT_NEAR(result.x[0], 3.14159265, 1e-3);
}

TEST(NelderMeadTest, RespectsIterationBudget) {
  auto f = [](const std::array<double, 1>& x) { return sq(x[0]); };
  NelderMeadOptions opt;
  opt.max_iterations = 3;
  const auto result = minimize_nelder_mead(f, std::array{100.0}, opt);
  EXPECT_LE(result.iterations, 3);
}

// No empty-start case: the dimension is a template parameter, and N == 0
// fails a static_assert at compile time.

}  // namespace
}  // namespace qvg
