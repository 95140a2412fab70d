#include "common/error.hpp"
#include "common/random.hpp"
#include "linalg/least_squares.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace qvg {
namespace {

TEST(FitLineTest, ExactLine) {
  const std::vector<double> x{0, 1, 2, 3};
  const std::vector<double> y{1, 3, 5, 7};
  const LineFit fit = fit_line(x, y);
  EXPECT_NEAR(fit.slope, 2.0, 1e-12);
  EXPECT_NEAR(fit.intercept, 1.0, 1e-12);
  EXPECT_NEAR(fit.rms_residual, 0.0, 1e-12);
}

TEST(FitLineTest, NoisyLineRecoversSlope) {
  Rng rng(5);
  std::vector<double> x;
  std::vector<double> y;
  for (int i = 0; i < 200; ++i) {
    x.push_back(i * 0.1);
    y.push_back(-0.25 * i * 0.1 + 2.0 + rng.normal(0.0, 0.05));
  }
  const LineFit fit = fit_line(x, y);
  EXPECT_NEAR(fit.slope, -0.25, 0.02);
  EXPECT_NEAR(fit.intercept, 2.0, 0.03);
  EXPECT_NEAR(fit.rms_residual, 0.05, 0.02);
}

TEST(FitLineTest, TooFewPointsThrows) {
  EXPECT_THROW((void)fit_line({1.0}, {2.0}), NumericalError);
}

TEST(FitLineTest, DegenerateXThrows) {
  EXPECT_THROW((void)fit_line({1.0, 1.0, 1.0}, {1.0, 2.0, 3.0}), NumericalError);
}

}  // namespace
}  // namespace qvg
