#include "imgproc/kernel.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

namespace qvg {
namespace {

double kernel_sum(const Kernel2D& k) {
  return std::accumulate(k.raw().begin(), k.raw().end(), 0.0);
}

TEST(GaussianTapsTest, NormalizedAndSymmetric) {
  const auto taps = gaussian_taps(1.5);
  const double sum = std::accumulate(taps.begin(), taps.end(), 0.0);
  EXPECT_NEAR(sum, 1.0, 1e-12);
  for (std::size_t i = 0; i < taps.size() / 2; ++i)
    EXPECT_DOUBLE_EQ(taps[i], taps[taps.size() - 1 - i]);
  // Peak at the centre.
  EXPECT_GT(taps[taps.size() / 2], taps[0]);
}

TEST(GaussianTapsTest, RadiusControlsLength) {
  EXPECT_EQ(gaussian_taps(1.0, 3).size(), 7u);
  EXPECT_EQ(gaussian_taps(2.0).size(), 13u);  // ceil(3*sigma)=6 -> 13 taps
}

TEST(SobelKernelTest, ZeroSumAndAntisymmetry) {
  const auto sx = sobel_x_kernel();
  const auto sy = sobel_y_kernel();
  EXPECT_DOUBLE_EQ(kernel_sum(sx), 0.0);
  EXPECT_DOUBLE_EQ(kernel_sum(sy), 0.0);
  // sobel_x is antisymmetric in x, sobel_y in y.
  for (std::size_t y = 0; y < 3; ++y)
    EXPECT_DOUBLE_EQ(sx(0, y), -sx(2, y));
  for (std::size_t x = 0; x < 3; ++x)
    EXPECT_DOUBLE_EQ(sy(x, 0), -sy(x, 2));
}

TEST(PaperMaskTest, DimensionsMatchPaper) {
  const auto mx = paper_mask_x();
  EXPECT_EQ(mx.width(), 5u);   // 3 rows x 5 columns in the paper
  EXPECT_EQ(mx.height(), 3u);
  const auto my = paper_mask_y();
  EXPECT_EQ(my.width(), 3u);   // 5 rows x 3 columns
  EXPECT_EQ(my.height(), 5u);
}

TEST(PaperMaskTest, ZeroSum) {
  EXPECT_DOUBLE_EQ(kernel_sum(paper_mask_x()), 0.0);
  EXPECT_DOUBLE_EQ(kernel_sum(paper_mask_y()), 0.0);
}

TEST(PaperMaskTest, EntriesMatchPaperMatrix) {
  // Mask_x first paper row = [1 1 -3 -4 -4]; stored with y up, so the first
  // paper row sits at the highest y index.
  const auto mx = paper_mask_x();
  const double expected_top[5] = {1, 1, -3, -4, -4};
  const double expected_bottom[5] = {4, 4, 3, -1, -1};
  for (std::size_t x = 0; x < 5; ++x) {
    EXPECT_DOUBLE_EQ(mx(x, 2), expected_top[x]);
    EXPECT_DOUBLE_EQ(mx(x, 0), expected_bottom[x]);
  }
  const auto my = paper_mask_y();
  const double expected_top_y[3] = {-1, -2, -4};
  const double expected_bottom_y[3] = {4, 2, 1};
  for (std::size_t x = 0; x < 3; ++x) {
    EXPECT_DOUBLE_EQ(my(x, 4), expected_top_y[x]);
    EXPECT_DOUBLE_EQ(my(x, 0), expected_bottom_y[x]);
  }
}

TEST(PaperMaskTest, MaskXRespondsToNegativeSlopeFallingEdge) {
  // Build a 9x9 image with a steep negatively sloped boundary: bright on
  // the lower-left, dark on the upper-right. The mask centred on the
  // boundary must outscore the mask centred in flat regions.
  GridD image(9, 9, 1.0);
  for (std::size_t y = 0; y < 9; ++y)
    for (std::size_t x = 0; x < 9; ++x)
      if (static_cast<double>(x) > 4.5 - 0.25 * (static_cast<double>(y) - 4.0))
        image(x, y) = 0.0;
  const auto mask = paper_mask_x();
  auto response_at = [&](std::size_t cx, std::size_t cy) {
    double acc = 0.0;
    for (std::size_t my = 0; my < mask.height(); ++my)
      for (std::size_t mx = 0; mx < mask.width(); ++mx)
        acc += mask(mx, my) *
               image.clamped(static_cast<std::ptrdiff_t>(cx + mx) - 2,
                             static_cast<std::ptrdiff_t>(cy + my) - 1);
    return acc;
  };
  const double on_edge = response_at(4, 4);
  EXPECT_GT(on_edge, response_at(1, 4));  // flat bright region
  EXPECT_GT(on_edge, response_at(7, 4));  // flat dark region
  EXPECT_GT(on_edge, 0.0);
}

TEST(PaperMaskTest, MaskYRespondsToShallowFallingEdge) {
  // Shallow negatively sloped boundary: bright below, dark above.
  GridD image(9, 9, 1.0);
  for (std::size_t y = 0; y < 9; ++y)
    for (std::size_t x = 0; x < 9; ++x)
      if (static_cast<double>(y) > 4.5 - 0.25 * static_cast<double>(x))
        image(x, y) = 0.0;
  const auto mask = paper_mask_y();
  auto response_at = [&](std::size_t cx, std::size_t cy) {
    double acc = 0.0;
    for (std::size_t my = 0; my < mask.height(); ++my)
      for (std::size_t mx = 0; mx < mask.width(); ++mx)
        acc += mask(mx, my) *
               image.clamped(static_cast<std::ptrdiff_t>(cx + mx) - 1,
                             static_cast<std::ptrdiff_t>(cy + my) - 2);
    return acc;
  };
  const double on_edge = response_at(4, 4);
  EXPECT_GT(on_edge, response_at(4, 1));
  EXPECT_GT(on_edge, response_at(4, 7));
  EXPECT_GT(on_edge, 0.0);
}

}  // namespace
}  // namespace qvg
