#include "extraction/virtualization.hpp"

#include "common/assert.hpp"
#include "common/geometry.hpp"
#include "linalg/solve.hpp"

#include <algorithm>
#include <cmath>

namespace qvg {

Matrix VirtualGatePair::matrix() const {
  return Matrix{{1.0, alpha12}, {alpha21, 1.0}};
}

Result<VirtualGatePair> virtualization_from_slopes(double slope_steep,
                                                   double slope_shallow) {
  if (!(slope_steep < 0.0) || !(slope_shallow < 0.0))
    return Status::failure(ErrorCode::kDegenerateVirtualization, "",
                           "transition-line slopes must be negative");
  if (!(slope_steep < slope_shallow))
    return Status::failure(
        ErrorCode::kDegenerateVirtualization, "",
        "steep slope must be more negative than shallow slope");
  VirtualGatePair pair;
  pair.alpha12 = -1.0 / slope_steep;
  pair.alpha21 = -slope_shallow;
  return pair;
}

double transform_slope(const Matrix& m, double slope) {
  QVG_EXPECTS(m.rows() == 2 && m.cols() == 2);
  const double dx = m(0, 0) + m(0, 1) * slope;
  const double dy = m(1, 0) + m(1, 1) * slope;
  if (std::abs(dx) < 1e-12) return dy >= 0 ? 1e12 : -1e12;  // vertical
  return dy / dx;
}

double virtualized_angle_deg(const VirtualGatePair& pair, double slope_steep,
                             double slope_shallow) {
  const Matrix m = pair.matrix();
  return angle_between_slopes_deg(transform_slope(m, slope_steep),
                                  transform_slope(m, slope_shallow));
}

Csd warp_to_virtual(const Csd& csd, const VirtualGatePair& pair) {
  QVG_EXPECTS(csd.width() >= 2 && csd.height() >= 2);
  const Matrix m = pair.matrix();
  const Matrix m_inv = inverse(m);

  // Virtual-space bounding box of the four corners.
  const double x0 = csd.x_axis().start();
  const double x1 = csd.x_axis().end();
  const double y0 = csd.y_axis().start();
  const double y1 = csd.y_axis().end();
  double vx_min = 1e300;
  double vx_max = -1e300;
  double vy_min = 1e300;
  double vy_max = -1e300;
  for (const auto& corner :
       {Point2{x0, y0}, Point2{x1, y0}, Point2{x0, y1}, Point2{x1, y1}}) {
    const auto v = m.apply({corner.x, corner.y});
    vx_min = std::min(vx_min, v[0]);
    vx_max = std::max(vx_max, v[0]);
    vy_min = std::min(vy_min, v[1]);
    vy_max = std::max(vy_max, v[1]);
  }

  Csd out(VoltageAxis::over_range(vx_min, vx_max, csd.width()),
          VoltageAxis::over_range(vy_min, vy_max, csd.height()));
  out.set_name(csd.name().empty() ? "virtualized" : csd.name() + "_virtual");

  for (std::size_t py = 0; py < out.height(); ++py) {
    for (std::size_t px = 0; px < out.width(); ++px) {
      const Point2 vp = out.voltage_at(px, py);
      const auto physical = m_inv.apply({vp.x, vp.y});
      // Continuous pixel coordinates in the source, clamped to the border.
      double fx = csd.x_axis().index_of(physical[0]);
      double fy = csd.y_axis().index_of(physical[1]);
      fx = std::clamp(fx, 0.0, static_cast<double>(csd.width() - 1));
      fy = std::clamp(fy, 0.0, static_cast<double>(csd.height() - 1));
      const auto ix = static_cast<std::size_t>(fx);
      const auto iy = static_cast<std::size_t>(fy);
      const std::size_t ix1 = std::min(ix + 1, csd.width() - 1);
      const std::size_t iy1 = std::min(iy + 1, csd.height() - 1);
      const double tx = fx - static_cast<double>(ix);
      const double ty = fy - static_cast<double>(iy);
      const double top = csd.grid()(ix, iy1) * (1.0 - tx) + csd.grid()(ix1, iy1) * tx;
      const double bottom = csd.grid()(ix, iy) * (1.0 - tx) + csd.grid()(ix1, iy) * tx;
      out.grid()(px, py) = bottom * (1.0 - ty) + top * ty;
    }
  }
  return out;
}

Matrix compose_array_virtualization(const std::vector<VirtualGatePair>& pairs) {
  QVG_EXPECTS(!pairs.empty());
  const std::size_t n = pairs.size() + 1;
  Matrix m = Matrix::identity(n);
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    m(i, i + 1) = pairs[i].alpha12;
    m(i + 1, i) = pairs[i].alpha21;
  }
  return m;
}

}  // namespace qvg
