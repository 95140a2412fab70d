// 2-D geometry primitives used throughout the extraction pipeline.
//
// Coordinate convention, shared by every module: x is the VP1 axis (column
// index increases rightward), y is the VP2 axis (row index increases
// upward), and grids index as (x, y). Charge-state region (0,0) sits at low
// x / low y. Both transition lines have negative slope dVP2/dVP1; the
// (0,0)->(1,0) line is steep (|m| > 1), the (0,0)->(0,1) line is shallow
// (|m| < 1). The paper's figures plot VP1 on the vertical axis instead, so
// its §2.3 formulas match ours modulo that swap.
#pragma once

#include <cmath>
#include <compare>
#include <iosfwd>
#include <optional>

namespace qvg {

/// Continuous point in voltage (or pixel-center) space.
struct Point2 {
  double x = 0.0;
  double y = 0.0;

  friend Point2 operator+(Point2 a, Point2 b) { return {a.x + b.x, a.y + b.y}; }
  friend Point2 operator-(Point2 a, Point2 b) { return {a.x - b.x, a.y - b.y}; }
  friend Point2 operator*(double s, Point2 p) { return {s * p.x, s * p.y}; }
  friend bool operator==(const Point2&, const Point2&) = default;
};

std::ostream& operator<<(std::ostream& os, const Point2& p);

/// Integer pixel coordinate: x = column index, y = row index.
struct Pixel {
  int x = 0;
  int y = 0;

  friend bool operator==(const Pixel&, const Pixel&) = default;
  friend auto operator<=>(const Pixel&, const Pixel&) = default;

  [[nodiscard]] Point2 center() const {
    return {static_cast<double>(x), static_cast<double>(y)};
  }
};

std::ostream& operator<<(std::ostream& os, const Pixel& p);

[[nodiscard]] double distance(Point2 a, Point2 b);
[[nodiscard]] double distance(Pixel a, Pixel b);

/// An infinite, non-vertical line y = slope * x + intercept.
class Line2 {
 public:
  Line2() = default;
  Line2(double slope, double intercept) : slope_(slope), intercept_(intercept) {}

  /// Line through two points. Throws ContractViolation when the points share
  /// an x coordinate (vertical line) — callers in this library always work
  /// with finite-slope transition lines.
  static Line2 through(Point2 a, Point2 b);

  [[nodiscard]] double slope() const noexcept { return slope_; }
  [[nodiscard]] double intercept() const noexcept { return intercept_; }

  [[nodiscard]] double y_at(double x) const noexcept {
    return slope_ * x + intercept_;
  }
  /// x where the line attains the given y. Requires a non-horizontal line.
  [[nodiscard]] double x_at(double y) const;

  /// Intersection of two lines; nullopt when (near-)parallel.
  [[nodiscard]] std::optional<Point2> intersect(const Line2& other) const;

  /// Perpendicular distance from a point to this line.
  [[nodiscard]] double distance_to(Point2 p) const;

 private:
  double slope_ = 0.0;
  double intercept_ = 0.0;
};

/// The paper's critical region (§4.2, Figure 4): the right triangle spanned by
/// anchor A (on the shallow (0,0)->(0,1) line, upper-left) and anchor B (on
/// the steep (0,0)->(1,0) line, lower-right). The right-angle vertex is at
/// (B.x, A.y); the hypotenuse runs from A to B. Both transition lines are
/// guaranteed to lie inside this region when the slope priors hold.
class TriangleRegion {
 public:
  /// Requires A strictly left of and above B.
  TriangleRegion(Point2 anchor_a, Point2 anchor_b);

  [[nodiscard]] Point2 anchor_a() const noexcept { return a_; }
  [[nodiscard]] Point2 anchor_b() const noexcept { return b_; }
  [[nodiscard]] Point2 right_angle_vertex() const noexcept {
    return {b_.x, a_.y};
  }
  [[nodiscard]] Line2 hypotenuse() const { return Line2::through(a_, b_); }

  /// True when the point lies inside or on the boundary of the triangle.
  /// The paper uses the pixel *center* for this test (§4.3.2).
  [[nodiscard]] bool contains(Point2 p) const;

  /// Horizontal segment of the triangle at height y: [x_min, x_max], or
  /// nullopt when the row does not intersect the region.
  [[nodiscard]] std::optional<std::pair<double, double>> row_span(double y) const;

  /// Vertical segment of the triangle at abscissa x: [y_min, y_max], or
  /// nullopt when the column does not intersect the region.
  [[nodiscard]] std::optional<std::pair<double, double>> col_span(double x) const;

  /// Move anchor B (used by the row-major sweep as it climbs) while keeping
  /// A fixed. The new anchor must stay right of / below A.
  void move_anchor_b(Point2 b);

  /// Move anchor A (used by the column-major sweep) while keeping B fixed.
  void move_anchor_a(Point2 a);

  [[nodiscard]] double area() const noexcept;

 private:
  Point2 a_;  // upper-left anchor (shallow line)
  Point2 b_;  // lower-right anchor (steep line)
};

/// Angle in degrees between two lines given by their slopes (0..90].
[[nodiscard]] double angle_between_slopes_deg(double m1, double m2);

}  // namespace qvg
