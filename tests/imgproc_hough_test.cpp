#include "imgproc/hough.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace qvg {
namespace {

/// Draw a line y = m x + c into a binary image.
GridU8 line_image(std::size_t n, double m, double c) {
  GridU8 image(n, n, 0);
  for (std::size_t x = 0; x < n; ++x) {
    const double y = m * static_cast<double>(x) + c;
    const auto yi = static_cast<std::ptrdiff_t>(std::llround(y));
    if (image.in_bounds(static_cast<std::ptrdiff_t>(x), yi))
      image(x, static_cast<std::size_t>(yi)) = 1;
  }
  return image;
}

TEST(HoughLineTest, SlopeFromNormalForm) {
  // Horizontal line y = 5: theta = 90deg, rho = 5.
  HoughLine horizontal{5.0, std::numbers::pi / 2.0, 10};
  ASSERT_TRUE(horizontal.slope().has_value());
  EXPECT_NEAR(*horizontal.slope(), 0.0, 1e-12);
  // Vertical line x = 3: theta = 0.
  HoughLine vertical{3.0, 0.0, 10};
  EXPECT_FALSE(vertical.slope().has_value());
}

TEST(HoughTest, FindsSingleLineSlope) {
  const GridU8 image = line_image(64, -0.5, 40.0);
  const auto lines = hough_lines(image);
  ASSERT_FALSE(lines.empty());
  ASSERT_TRUE(lines[0].slope().has_value());
  EXPECT_NEAR(*lines[0].slope(), -0.5, 0.06);
  // y-intercept of rho = x cos(theta) + y sin(theta).
  EXPECT_NEAR(lines[0].rho / std::sin(lines[0].theta), 40.0, 3.0);
}

TEST(HoughTest, FindsSteepLine) {
  // x = 30 - 0.25 (y - 10) -> dy/dx = -4.
  GridU8 image(64, 64, 0);
  for (std::size_t y = 0; y < 64; ++y) {
    const double x = 30.0 - 0.25 * static_cast<double>(y);
    image(static_cast<std::size_t>(std::llround(x)), y) = 1;
  }
  const auto lines = hough_lines(image);
  ASSERT_FALSE(lines.empty());
  ASSERT_TRUE(lines[0].slope().has_value());
  EXPECT_NEAR(*lines[0].slope(), -4.0, 0.6);
}

TEST(HoughTest, FindsBothTransitionLineFamilies) {
  // Steep + shallow negatively sloped lines, like a CSD boundary.
  GridU8 image(100, 100, 0);
  for (std::size_t y = 0; y < 50; ++y) {
    const double x = 55.0 - 0.25 * static_cast<double>(y);
    image(static_cast<std::size_t>(std::llround(x)), y) = 1;
  }
  for (std::size_t x = 5; x < 50; ++x) {
    const double y = 52.0 - 0.2 * static_cast<double>(x);
    image(x, static_cast<std::size_t>(std::llround(y))) = 1;
  }
  const auto lines = hough_lines(image);
  bool found_steep = false;
  bool found_shallow = false;
  for (const auto& line : lines) {
    const auto slope = line.slope();
    if (!slope) {
      found_steep = true;  // near-vertical counts as steep
      continue;
    }
    if (*slope < -1.5) found_steep = true;
    if (*slope > -1.0 && *slope < -0.05) found_shallow = true;
  }
  EXPECT_TRUE(found_steep);
  EXPECT_TRUE(found_shallow);
}

TEST(HoughTest, VotesMatchLineLength) {
  const GridU8 image = line_image(64, 0.0, 32.0);  // horizontal, 64 px
  const auto acc = hough_accumulate(image);
  int max_votes = 0;
  for (int v : acc.votes.raw()) max_votes = std::max(max_votes, v);
  EXPECT_GE(max_votes, 60);
  EXPECT_LE(max_votes, 70);
}

TEST(HoughTest, EmptyImageYieldsNoLines) {
  const GridU8 image(32, 32, 0);
  EXPECT_TRUE(hough_lines(image).empty());
}

TEST(HoughTest, NmsSuppressesDuplicatePeaks) {
  const GridU8 image = line_image(64, -0.3, 40.0);
  HoughOptions opt;
  opt.max_lines = 8;
  const auto lines = hough_lines(image, opt);
  // One physical line: NMS should not report many near-duplicates.
  int near_duplicates = 0;
  for (std::size_t i = 0; i < lines.size(); ++i)
    for (std::size_t j = i + 1; j < lines.size(); ++j)
      if (std::abs(lines[i].rho - lines[j].rho) < 3.0 &&
          std::abs(lines[i].theta - lines[j].theta) < 0.05)
        ++near_duplicates;
  EXPECT_EQ(near_duplicates, 0);
}

TEST(HoughTest, ExplicitThresholdFiltersShortSegments) {
  GridU8 image(64, 64, 0);
  for (std::size_t x = 10; x < 20; ++x) image(x, 30) = 1;  // 10-pixel segment
  HoughOptions opt;
  opt.votes_threshold = 30;
  EXPECT_TRUE(hough_lines(image, opt).empty());
  opt.votes_threshold = 5;
  EXPECT_FALSE(hough_lines(image, opt).empty());
}

TEST(HoughTest, AccumulatorBinMappingRoundTrips) {
  const GridU8 image(16, 16, 0);
  const auto acc = hough_accumulate(image);
  EXPECT_NEAR(acc.rho_of_bin(0), acc.rho_min, 1e-12);
  EXPECT_NEAR(acc.theta_of_bin(0), 0.0, 1e-12);
  const double diag = std::hypot(16.0, 16.0);
  EXPECT_NEAR(acc.rho_of_bin(acc.votes.height() - 1), diag, 1.5);
}

}  // namespace
}  // namespace qvg
