#include "common/error.hpp"
#include "grid/axis.hpp"
#include "grid/csd.hpp"
#include "grid/grid2d.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace qvg {
namespace {

TEST(VoltageAxisTest, IndexVoltageRoundTrip) {
  const VoltageAxis axis(0.0, 0.001, 101);
  EXPECT_DOUBLE_EQ(axis.voltage(0), 0.0);
  EXPECT_DOUBLE_EQ(axis.voltage(100), 0.1);
  EXPECT_DOUBLE_EQ(axis.index_of(0.05), 50.0);
  EXPECT_DOUBLE_EQ(axis.end(), 0.1);
}

TEST(VoltageAxisTest, OverRange) {
  const VoltageAxis axis = VoltageAxis::over_range(0.0, 0.06, 100);
  EXPECT_EQ(axis.count(), 100u);
  EXPECT_DOUBLE_EQ(axis.start(), 0.0);
  EXPECT_NEAR(axis.end(), 0.06, 1e-15);
}

TEST(VoltageAxisTest, NearestIndexClamps) {
  const VoltageAxis axis(0.0, 0.01, 11);  // 0 .. 0.1
  EXPECT_EQ(axis.nearest_index(-5.0), 0u);
  EXPECT_EQ(axis.nearest_index(5.0), 10u);
  EXPECT_EQ(axis.nearest_index(0.034), 3u);
  EXPECT_EQ(axis.nearest_index(0.036), 4u);
}

TEST(VoltageAxisTest, NearestIndexClampsAtBothEndsExactly) {
  const VoltageAxis axis(-1.0, 0.5, 9);  // pixels at -1.0, -0.5, ..., 3.0
  // Below the first pixel, including far below and -inf.
  EXPECT_EQ(axis.nearest_index(-1.0), 0u);
  EXPECT_EQ(axis.nearest_index(-1.2), 0u);
  EXPECT_EQ(axis.nearest_index(-1e300), 0u);
  EXPECT_EQ(axis.nearest_index(-HUGE_VAL), 0u);
  // Ties round away from zero: index 0.5 -> 1, index 7.5 -> 8.
  EXPECT_EQ(axis.nearest_index(-0.75), 1u);
  EXPECT_EQ(axis.nearest_index(2.75), 8u);
  EXPECT_EQ(axis.nearest_index(std::nextafter(2.75, 0.0)), 7u);
  // At and past the last pixel, including far past, +inf and NaN.
  EXPECT_EQ(axis.nearest_index(3.0), 8u);
  EXPECT_EQ(axis.nearest_index(3.2), 8u);
  EXPECT_EQ(axis.nearest_index(1e300), 8u);
  EXPECT_EQ(axis.nearest_index(HUGE_VAL), 8u);
  EXPECT_EQ(axis.nearest_index(std::nan("")), 8u);
  // A one-pixel axis maps everything to 0.
  const VoltageAxis single(0.0, 1.0, 1);
  for (double v : {-5.0, 0.0, 0.4, 7.0}) EXPECT_EQ(single.nearest_index(v), 0u);
}

TEST(VoltageAxisTest, InRange) {
  const VoltageAxis axis(0.0, 0.01, 11);
  EXPECT_TRUE(axis.in_range(0.05));
  EXPECT_TRUE(axis.in_range(0.1049));  // within half a pixel of the end
  EXPECT_FALSE(axis.in_range(0.12));
  EXPECT_FALSE(axis.in_range(-0.01));
}

TEST(VoltageAxisTest, Validation) {
  EXPECT_THROW(VoltageAxis(0.0, -0.1, 10), ContractViolation);
  EXPECT_THROW(VoltageAxis(0.0, 0.0, 10), ContractViolation);
  EXPECT_THROW(VoltageAxis::over_range(1.0, 0.0, 10), ContractViolation);
}

TEST(Grid2DTest, IndexingConvention) {
  Grid2D<int> grid(3, 2, 0);  // width 3 (x), height 2 (y)
  grid(2, 1) = 42;
  EXPECT_EQ(grid.at(2, 1), 42);
  EXPECT_EQ(grid.width(), 3u);
  EXPECT_EQ(grid.height(), 2u);
  EXPECT_EQ(grid.size(), 6u);
}

TEST(Grid2DTest, AtBoundsChecked) {
  Grid2D<int> grid(3, 2);
  EXPECT_THROW(grid.at(3, 0), ContractViolation);
  EXPECT_THROW(grid.at(0, 2), ContractViolation);
}

TEST(Grid2DTest, InBounds) {
  const Grid2D<int> grid(3, 2);
  EXPECT_TRUE(grid.in_bounds(0, 0));
  EXPECT_TRUE(grid.in_bounds(2, 1));
  EXPECT_FALSE(grid.in_bounds(-1, 0));
  EXPECT_FALSE(grid.in_bounds(3, 0));
  EXPECT_FALSE(grid.in_bounds(0, 2));
}

TEST(Grid2DTest, ClampedAccessReplicatesBorder) {
  Grid2D<int> grid(2, 2);
  grid(0, 0) = 1;
  grid(1, 0) = 2;
  grid(0, 1) = 3;
  grid(1, 1) = 4;
  EXPECT_EQ(grid.clamped(-5, -5), 1);
  EXPECT_EQ(grid.clamped(10, -1), 2);
  EXPECT_EQ(grid.clamped(-1, 10), 3);
  EXPECT_EQ(grid.clamped(10, 10), 4);
}

TEST(Grid2DTest, FillResets) {
  Grid2D<double> grid(4, 4, 1.0);
  grid.fill(2.5);
  for (double v : grid.raw()) EXPECT_DOUBLE_EQ(v, 2.5);
}

TEST(CsdTest, VoltageAtPixel) {
  const Csd csd(VoltageAxis(0.0, 0.001, 10), VoltageAxis(0.1, 0.002, 5));
  const Point2 p = csd.voltage_at(3, 2);
  EXPECT_DOUBLE_EQ(p.x, 0.003);
  EXPECT_DOUBLE_EQ(p.y, 0.104);
}

TEST(CsdTest, CurrentRange) {
  Csd csd(VoltageAxis(0.0, 1.0, 3), VoltageAxis(0.0, 1.0, 3));
  csd.grid()(0, 0) = -1.0;
  csd.grid()(2, 2) = 5.0;
  const auto [lo, hi] = csd.current_range();
  EXPECT_DOUBLE_EQ(lo, -1.0);
  EXPECT_DOUBLE_EQ(hi, 5.0);
}

TEST(CsdTest, CropPreservesVoltageMapping) {
  Csd csd(VoltageAxis(0.0, 0.01, 10), VoltageAxis(0.0, 0.01, 10));
  for (std::size_t y = 0; y < 10; ++y)
    for (std::size_t x = 0; x < 10; ++x)
      csd.grid()(x, y) = static_cast<double>(x + 10 * y);
  const Csd crop = csd.cropped(2, 3, 4, 5);
  EXPECT_EQ(crop.width(), 4u);
  EXPECT_EQ(crop.height(), 5u);
  EXPECT_DOUBLE_EQ(crop.grid()(0, 0), csd.grid()(2, 3));
  EXPECT_DOUBLE_EQ(crop.voltage_at(0, 0).x, csd.voltage_at(2, 3).x);
  EXPECT_DOUBLE_EQ(crop.voltage_at(0, 0).y, csd.voltage_at(2, 3).y);
}

TEST(CsdTest, CropValidation) {
  const Csd csd(VoltageAxis(0.0, 0.01, 10), VoltageAxis(0.0, 0.01, 10));
  EXPECT_THROW(csd.cropped(8, 0, 4, 4), ContractViolation);
  EXPECT_THROW(csd.cropped(0, 0, 0, 4), ContractViolation);
}

TEST(TransitionTruthTest, AlphaFormulas) {
  TransitionTruth truth;
  truth.slope_steep = -4.0;
  truth.slope_shallow = -0.25;
  EXPECT_DOUBLE_EQ(truth.alpha12(), 0.25);
  EXPECT_DOUBLE_EQ(truth.alpha21(), 0.25);
}

TEST(CsdTest, TruthAttachment) {
  Csd csd(VoltageAxis(0.0, 1.0, 2), VoltageAxis(0.0, 1.0, 2));
  EXPECT_FALSE(csd.truth().has_value());
  TransitionTruth t;
  t.slope_steep = -3.0;
  csd.set_truth(t);
  ASSERT_TRUE(csd.truth().has_value());
  EXPECT_DOUBLE_EQ(csd.truth()->slope_steep, -3.0);
  // Crop keeps the truth.
  EXPECT_TRUE(csd.cropped(0, 0, 1, 1).truth().has_value());
}

}  // namespace
}  // namespace qvg
