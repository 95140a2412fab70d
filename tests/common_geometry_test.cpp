#include "common/error.hpp"
#include "common/geometry.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace qvg {
namespace {

TEST(Point2Test, Arithmetic) {
  const Point2 a{1.0, 2.0};
  const Point2 b{3.0, -1.0};
  EXPECT_EQ((a + b), (Point2{4.0, 1.0}));
  EXPECT_EQ((a - b), (Point2{-2.0, 3.0}));
  EXPECT_EQ((2.0 * a), (Point2{2.0, 4.0}));
}

TEST(DistanceTest, Pixels) {
  EXPECT_DOUBLE_EQ(distance(Pixel{1, 1}, Pixel{4, 5}), 5.0);
}

TEST(Line2Test, ThroughTwoPoints) {
  const Line2 line = Line2::through({0.0, 1.0}, {2.0, 5.0});
  EXPECT_DOUBLE_EQ(line.slope(), 2.0);
  EXPECT_DOUBLE_EQ(line.intercept(), 1.0);
  EXPECT_DOUBLE_EQ(line.y_at(3.0), 7.0);
  EXPECT_DOUBLE_EQ(line.x_at(7.0), 3.0);
}

TEST(Line2Test, VerticalThroughThrows) {
  EXPECT_THROW(Line2::through({1.0, 0.0}, {1.0, 5.0}), ContractViolation);
}

TEST(Line2Test, XAtOnHorizontalThrows) {
  const Line2 horizontal(0.0, 2.0);
  EXPECT_THROW((void)horizontal.x_at(1.0), ContractViolation);
}

TEST(Line2Test, Intersection) {
  const Line2 a(1.0, 0.0);
  const Line2 b(-1.0, 4.0);
  const auto p = a.intersect(b);
  ASSERT_TRUE(p.has_value());
  EXPECT_DOUBLE_EQ(p->x, 2.0);
  EXPECT_DOUBLE_EQ(p->y, 2.0);
}

TEST(Line2Test, ParallelLinesDoNotIntersect) {
  const Line2 a(0.5, 0.0);
  const Line2 b(0.5, 1.0);
  EXPECT_FALSE(a.intersect(b).has_value());
}

class TriangleRegionTest : public ::testing::Test {
 protected:
  // A = upper-left (on shallow line), B = lower-right (on steep line).
  TriangleRegion triangle_{{10.0, 50.0}, {55.0, 10.0}};
};

TEST_F(TriangleRegionTest, InvalidAnchorsThrow) {
  EXPECT_THROW(TriangleRegion({10.0, 10.0}, {5.0, 5.0}), ContractViolation);
  EXPECT_THROW(TriangleRegion({10.0, 10.0}, {20.0, 20.0}), ContractViolation);
}

TEST_F(TriangleRegionTest, RightAngleVertex) {
  EXPECT_EQ(triangle_.right_angle_vertex(), (Point2{55.0, 50.0}));
}

TEST_F(TriangleRegionTest, RowSpanMatchesHypotenuse) {
  const auto span = triangle_.row_span(30.0);
  ASSERT_TRUE(span.has_value());
  const Line2 hyp = triangle_.hypotenuse();
  EXPECT_NEAR(span->first, hyp.x_at(30.0), 1e-12);
  EXPECT_DOUBLE_EQ(span->second, 55.0);
}

TEST_F(TriangleRegionTest, RowSpanOutsideRangeIsEmpty) {
  EXPECT_FALSE(triangle_.row_span(51.0).has_value());
  EXPECT_FALSE(triangle_.row_span(9.0).has_value());
}

TEST_F(TriangleRegionTest, ColSpanMatchesHypotenuse) {
  const auto span = triangle_.col_span(30.0);
  ASSERT_TRUE(span.has_value());
  const Line2 hyp = triangle_.hypotenuse();
  EXPECT_NEAR(span->first, hyp.y_at(30.0), 1e-12);
  EXPECT_DOUBLE_EQ(span->second, 50.0);
}

TEST_F(TriangleRegionTest, ColSpanOutsideRangeIsEmpty) {
  EXPECT_FALSE(triangle_.col_span(9.0).has_value());
  EXPECT_FALSE(triangle_.col_span(56.0).has_value());
}

TEST_F(TriangleRegionTest, MoveAnchorsShrinkTheSpans) {
  triangle_.move_anchor_b({50.0, 20.0});
  EXPECT_EQ(triangle_.anchor_b(), (Point2{50.0, 20.0}));
  EXPECT_DOUBLE_EQ(triangle_.row_span(30.0)->second, 50.0);
  EXPECT_FALSE(triangle_.row_span(15.0).has_value());
  triangle_.move_anchor_a({20.0, 45.0});
  EXPECT_EQ(triangle_.anchor_a(), (Point2{20.0, 45.0}));
  EXPECT_DOUBLE_EQ(triangle_.col_span(30.0)->second, 45.0);
  EXPECT_FALSE(triangle_.col_span(15.0).has_value());
}

TEST_F(TriangleRegionTest, MoveAnchorValidatesOrdering) {
  EXPECT_THROW(triangle_.move_anchor_b({5.0, 5.0}), ContractViolation);
  EXPECT_THROW(triangle_.move_anchor_a({60.0, 60.0}), ContractViolation);
}

// Property sweep: both transition lines (negative slopes, steep through B,
// shallow through A) must lie inside the triangle spanned by the anchors —
// the paper's §4.2 claim.
class SlopePriorProperty
    : public ::testing::TestWithParam<std::pair<double, double>> {};

/// Inside or on the boundary of the triangle: left of B, below A, and on or
/// above the hypotenuse.
bool inside(const TriangleRegion& triangle, Point2 p) {
  if (p.x > triangle.anchor_b().x || p.y > triangle.anchor_a().y) return false;
  return p.y >= triangle.hypotenuse().y_at(p.x) - 1e-12;
}

TEST_P(SlopePriorProperty, LinesAreContainedInTriangle) {
  const auto [m_steep, m_shallow] = GetParam();
  const Point2 a{10.0, 50.0};
  const Point2 b{55.0, 10.0};
  const TriangleRegion triangle(a, b);
  const Line2 steep(m_steep, b.y - m_steep * b.x);       // through B
  const Line2 shallow(m_shallow, a.y - m_shallow * a.x);  // through A
  const auto crossing = steep.intersect(shallow);
  ASSERT_TRUE(crossing.has_value());
  // Sample both line segments between their anchor and the intersection.
  for (int i = 0; i <= 20; ++i) {
    const double t = i / 20.0;
    const Point2 on_steep = b + t * (*crossing - b);
    const Point2 on_shallow = a + t * (*crossing - a);
    EXPECT_TRUE(inside(triangle, on_steep))
        << "steep point " << on_steep.x << "," << on_steep.y;
    EXPECT_TRUE(inside(triangle, on_shallow))
        << "shallow point " << on_shallow.x << "," << on_shallow.y;
  }
}

INSTANTIATE_TEST_SUITE_P(
    SlopePairs, SlopePriorProperty,
    ::testing::Values(std::pair{-2.0, -0.5}, std::pair{-3.5, -0.25},
                      std::pair{-5.0, -0.1}, std::pair{-8.0, -0.4},
                      std::pair{-1.5, -0.6}, std::pair{-10.0, -0.05}));

TEST(AngleBetweenSlopesTest, KnownValues) {
  EXPECT_NEAR(angle_between_slopes_deg(0.0, 1.0), 45.0, 1e-9);
  EXPECT_NEAR(angle_between_slopes_deg(1.0, -1.0), 90.0, 1e-9);
  EXPECT_NEAR(angle_between_slopes_deg(2.0, 2.0), 0.0, 1e-9);
  // Orthogonal pair m and -1/m.
  EXPECT_NEAR(angle_between_slopes_deg(-4.0, 0.25), 90.0, 1e-9);
}

}  // namespace
}  // namespace qvg
