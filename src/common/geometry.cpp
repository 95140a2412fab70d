#include "common/geometry.hpp"

#include "common/assert.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

namespace qvg {

double distance(Pixel a, Pixel b) {
  return std::hypot(static_cast<double>(a.x - b.x),
                    static_cast<double>(a.y - b.y));
}

Line2 Line2::through(Point2 a, Point2 b) {
  QVG_EXPECTS(std::abs(b.x - a.x) > 1e-12);
  const double slope = (b.y - a.y) / (b.x - a.x);
  return Line2(slope, a.y - slope * a.x);
}

double Line2::x_at(double y) const {
  QVG_EXPECTS(std::abs(slope_) > 1e-12);
  return (y - intercept_) / slope_;
}

std::optional<Point2> Line2::intersect(const Line2& other) const {
  const double dm = slope_ - other.slope_;
  if (std::abs(dm) < 1e-12) return std::nullopt;
  const double x = (other.intercept_ - intercept_) / dm;
  return Point2{x, y_at(x)};
}

TriangleRegion::TriangleRegion(Point2 anchor_a, Point2 anchor_b)
    : a_(anchor_a), b_(anchor_b) {
  QVG_EXPECTS(a_.x < b_.x);
  QVG_EXPECTS(a_.y > b_.y);
}

std::optional<std::pair<double, double>> TriangleRegion::row_span(double y) const {
  if (y > a_.y || y < b_.y) return std::nullopt;
  const Line2 hyp = hypotenuse();
  // hyp has negative slope, so x_at is well defined.
  const double x_lo = std::max(hyp.x_at(y), a_.x);
  const double x_hi = b_.x;
  if (x_lo > x_hi) return std::nullopt;
  return std::pair{x_lo, x_hi};
}

std::optional<std::pair<double, double>> TriangleRegion::col_span(double x) const {
  if (x < a_.x || x > b_.x) return std::nullopt;
  const Line2 hyp = hypotenuse();
  const double y_lo = std::max(hyp.y_at(x), b_.y);
  const double y_hi = a_.y;
  if (y_lo > y_hi) return std::nullopt;
  return std::pair{y_lo, y_hi};
}

void TriangleRegion::move_anchor_b(Point2 b) {
  QVG_EXPECTS(a_.x < b.x);
  QVG_EXPECTS(a_.y > b.y);
  b_ = b;
}

void TriangleRegion::move_anchor_a(Point2 a) {
  QVG_EXPECTS(a.x < b_.x);
  QVG_EXPECTS(a.y > b_.y);
  a_ = a;
}

double angle_between_slopes_deg(double m1, double m2) {
  const double a1 = std::atan(m1);
  const double a2 = std::atan(m2);
  double deg = std::abs(a1 - a2) * 180.0 / std::numbers::pi;
  if (deg > 90.0) deg = 180.0 - deg;
  return deg;
}

}  // namespace qvg
