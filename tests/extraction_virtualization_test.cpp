#include "extraction/virtualization.hpp"
#include "test_support.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace qvg {
namespace {

TEST(VirtualizationTest, FromSlopesComputesAlphas) {
  const auto pair = virtualization_from_slopes(-4.0, -0.25);
  ASSERT_TRUE(pair.has_value());
  EXPECT_DOUBLE_EQ(pair->alpha12, 0.25);
  EXPECT_DOUBLE_EQ(pair->alpha21, 0.25);
}

TEST(VirtualizationTest, MatrixLayout) {
  const auto pair = virtualization_from_slopes(-5.0, -0.1);
  ASSERT_TRUE(pair.has_value());
  const Matrix m = pair->matrix();
  EXPECT_DOUBLE_EQ(m(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(m(1, 1), 1.0);
  EXPECT_DOUBLE_EQ(m(0, 1), 0.2);
  EXPECT_DOUBLE_EQ(m(1, 0), 0.1);
}

TEST(VirtualizationTest, RejectsInvalidSlopes) {
  EXPECT_FALSE(virtualization_from_slopes(4.0, -0.25).has_value());
  EXPECT_FALSE(virtualization_from_slopes(-4.0, 0.25).has_value());
  // Ordering violated: steep must be more negative.
  const auto unordered = virtualization_from_slopes(-0.25, -4.0);
  EXPECT_FALSE(unordered.has_value());
  EXPECT_EQ(unordered.status().code(), ErrorCode::kDegenerateVirtualization);
  EXPECT_EQ(unordered.reason(),
            "steep slope must be more negative than shallow slope");
}

TEST(VirtualizationTest, TransformSlopeMapsDirections) {
  const Matrix identity = Matrix::identity(2);
  EXPECT_DOUBLE_EQ(transform_slope(identity, -2.0), -2.0);
  // Shear [[1, 0.5], [0, 1]]: direction (1, m) -> (1 + 0.5 m, m).
  const Matrix shear{{1.0, 0.5}, {0.0, 1.0}};
  // Direction (1, -2) maps to (0, -2): vertical.
  EXPECT_GT(std::abs(transform_slope(shear, -2.0)), 1e6);
  EXPECT_DOUBLE_EQ(transform_slope(shear, -1.0), -2.0);
}

TEST(VirtualizationTest, ExactSlopesGiveOrthogonalLines) {
  // With the exact compensation matrix, the transformed transition lines
  // must be orthogonal (90 deg): the paper's Figure 3 right panel.
  const double m_steep = -4.0;
  const double m_shallow = -0.25;
  const auto pair = virtualization_from_slopes(m_steep, m_shallow);
  ASSERT_TRUE(pair.has_value());
  EXPECT_NEAR(virtualized_angle_deg(*pair, m_steep, m_shallow), 90.0, 1e-9);
}

TEST(VirtualizationTest, SteepBecomesVerticalShallowHorizontal) {
  const double m_steep = -3.0;
  const double m_shallow = -0.2;
  const auto pair = virtualization_from_slopes(m_steep, m_shallow);
  ASSERT_TRUE(pair.has_value());
  const Matrix m = pair->matrix();
  EXPECT_GT(std::abs(transform_slope(m, m_steep)), 1e6);     // vertical
  EXPECT_NEAR(transform_slope(m, m_shallow), 0.0, 1e-12);    // horizontal
}

TEST(VirtualizationTest, WrongSlopesGiveDegradedAngle) {
  const auto pair = virtualization_from_slopes(-2.0, -0.5);
  ASSERT_TRUE(pair.has_value());
  // Apply to a device whose true slopes differ.
  const double angle = virtualized_angle_deg(*pair, -6.0, -0.1);
  EXPECT_LT(angle, 85.0);
}

TEST(VirtualizationTest, WarpPreservesSizeAndName) {
  testsupport::SyntheticCsdSpec spec;
  spec.pixels = 40;
  Csd csd = testsupport::make_synthetic_csd(spec);
  csd.set_name("demo");
  const auto pair = virtualization_from_slopes(-4.0, -0.25);
  const Csd warped = warp_to_virtual(csd, *pair);
  EXPECT_EQ(warped.width(), csd.width());
  EXPECT_EQ(warped.height(), csd.height());
  EXPECT_EQ(warped.name(), "demo_virtual");
}

TEST(VirtualizationTest, WarpOrthogonalizesBoundary) {
  // After warping with the exact matrix, the steep boundary must be a
  // vertical line in the virtual frame: for each row of the warped image,
  // the bright->dark crossing near the old steep line sits at the same
  // virtual x.
  testsupport::SyntheticCsdSpec spec;
  spec.background_per_pixel = 0.0;
  const Csd csd = testsupport::make_synthetic_csd(spec);
  const auto pair =
      virtualization_from_slopes(spec.slope_steep, spec.slope_shallow);
  const Csd warped = warp_to_virtual(csd, *pair);

  auto crossing_x = [&](std::size_t y) {
    for (std::size_t x = 1; x < warped.width(); ++x) {
      if (warped.grid()(x - 1, y) > 0.5 && warped.grid()(x, y) <= 0.5)
        return static_cast<double>(x);
    }
    return -1.0;
  };
  // Probe a band of rows below the triple point in virtual coordinates.
  std::vector<double> crossings;
  for (std::size_t y = 10; y <= 30; y += 5) {
    const double cx = crossing_x(y);
    if (cx > 0) crossings.push_back(cx);
  }
  ASSERT_GE(crossings.size(), 3u);
  for (std::size_t i = 1; i < crossings.size(); ++i)
    EXPECT_NEAR(crossings[i], crossings[0], 2.0);
}

TEST(VirtualizationTest, ComposeArrayBandedMatrix) {
  VirtualGatePair p01{0.2, 0.25};
  VirtualGatePair p12{0.3, 0.15};
  const Matrix m = compose_array_virtualization({p01, p12});
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_DOUBLE_EQ(m(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(m(0, 1), 0.2);
  EXPECT_DOUBLE_EQ(m(1, 0), 0.25);
  EXPECT_DOUBLE_EQ(m(1, 2), 0.3);
  EXPECT_DOUBLE_EQ(m(2, 1), 0.15);
  EXPECT_DOUBLE_EQ(m(0, 2), 0.0);  // beyond nearest neighbours: unobserved
}

TEST(VirtualizationTest, ComposeArrayRequiresAtLeastOnePair) {
  EXPECT_THROW(compose_array_virtualization({}), ContractViolation);
}

}  // namespace
}  // namespace qvg
