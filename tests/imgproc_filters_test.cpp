#include "common/random.hpp"
#include "imgproc/filters.hpp"
#include "linalg/stats.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

namespace qvg {
namespace {

TEST(GaussianBlurTest, PreservesConstant) {
  GridD image(8, 8, 5.0);
  const GridD out = gaussian_blur(image, 1.4);
  for (double v : out.raw()) EXPECT_NEAR(v, 5.0, 1e-12);
}

TEST(GaussianBlurTest, ReducesNoiseVariance) {
  Rng rng(3);
  GridD image(50, 50);
  for (double& v : image.raw()) v = rng.normal();
  const GridD out = gaussian_blur(image, 1.4);
  EXPECT_LT(variance(out.raw()), 0.25 * variance(image.raw()));
}

TEST(GaussianBlurTest, PreservesMeanApproximately) {
  Rng rng(4);
  GridD image(40, 40);
  for (double& v : image.raw()) v = rng.uniform(0.0, 1.0);
  const GridD out = gaussian_blur(image, 2.0);
  EXPECT_NEAR(mean(out.raw()), mean(image.raw()), 0.01);
}

TEST(MedianFilterTest, RemovesImpulseNoise) {
  GridD image(9, 9, 1.0);
  image(4, 4) = 100.0;  // single hot pixel
  const GridD out = median_filter(image, 1);
  EXPECT_DOUBLE_EQ(out(4, 4), 1.0);
}

TEST(MedianFilterTest, PreservesStepEdge) {
  GridD image(10, 10);
  for (std::size_t y = 0; y < 10; ++y)
    for (std::size_t x = 0; x < 10; ++x) image(x, y) = x < 5 ? 1.0 : 0.0;
  const GridD out = median_filter(image, 1);
  EXPECT_DOUBLE_EQ(out(2, 5), 1.0);
  EXPECT_DOUBLE_EQ(out(7, 5), 0.0);
}

TEST(MedianFilterTest, RadiusZeroIsIdentity) {
  GridD image(4, 4, 2.0);
  image(1, 1) = 9.0;
  EXPECT_EQ(median_filter(image, 0), image);
}

TEST(BoxBlurTest, AveragesNeighbourhood) {
  GridD image(5, 5, 0.0);
  image(2, 2) = 9.0;
  const GridD out = box_blur(image, 1);
  EXPECT_NEAR(out(2, 2), 1.0, 1e-12);
  EXPECT_NEAR(out(1, 1), 1.0, 1e-12);
  EXPECT_NEAR(out(0, 0), 0.0, 1e-12);
}

TEST(Normalize01Test, MapsRange) {
  GridD image(3, 1);
  image(0, 0) = -2.0;
  image(1, 0) = 0.0;
  image(2, 0) = 2.0;
  const GridD out = normalize01(image);
  EXPECT_DOUBLE_EQ(out(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(out(1, 0), 0.5);
  EXPECT_DOUBLE_EQ(out(2, 0), 1.0);
}

TEST(Normalize01Test, ConstantImageMapsToZero) {
  GridD image(3, 3, 7.0);
  const GridD out = normalize01(image);
  for (double v : out.raw()) EXPECT_DOUBLE_EQ(v, 0.0);
}

/// normalize01 as std::minmax_element defines it, for bit-level comparison.
GridD normalize01_oracle(const GridD& image) {
  const auto [lo_it, hi_it] =
      std::minmax_element(image.raw().begin(), image.raw().end());
  GridD out(image.width(), image.height());
  if (*hi_it - *lo_it < 1e-300) return out;
  const double scale = 1.0 / (*hi_it - *lo_it);
  for (std::size_t i = 0; i < image.raw().size(); ++i)
    out.raw()[i] = (image.raw()[i] - *lo_it) * scale;
  return out;
}

void expect_same_bits(const GridD& a, const GridD& b) {
  ASSERT_EQ(a.raw().size(), b.raw().size());
  EXPECT_EQ(std::memcmp(a.raw().data(), b.raw().data(),
                        a.raw().size() * sizeof(double)),
            0);
}

TEST(Normalize01Test, MatchesMinmaxElementBitForBit) {
  // Sizes around the four-chain unroll, random data, then the inputs where
  // the scan order shows: signed-zero minima (x - lo differs for x = -0)
  // and NaNs at the front, middle and back.
  Rng rng(77);
  for (const auto& [w, h] : {std::pair<std::size_t, std::size_t>{1, 1},
                             {3, 1}, {4, 1}, {5, 3}, {7, 7}, {64, 61}}) {
    GridD image(w, h);
    for (double& v : image.raw()) v = rng.normal();
    expect_same_bits(normalize01(image), normalize01_oracle(image));
  }
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<std::vector<double>> rows = {
      {0.0, -0.0, 1.0, -0.0, 2.0},  {-0.0, 0.0, 3.0, 0.0, -0.0, 1.0},
      {1.0, 0.0, 3.0, 4.0, -0.0},   {nan, 1.0, -1.0, 2.0, 0.5},
      {1.0, nan, -1.0, 2.0, 0.5},   {1.0, -1.0, 2.0, 0.5, nan},
      {2.0, 2.0, 5.0, 5.0, 2.0},    {-HUGE_VAL, 1.0, 2.0, 3.0, 4.0}};
  for (const std::vector<double>& row : rows) {
    GridD image(row.size(), 1);
    image.raw() = row;
    expect_same_bits(normalize01(image), normalize01_oracle(image));
  }
}

}  // namespace
}  // namespace qvg
