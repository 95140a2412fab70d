#include "probe/playback.hpp"

#include "common/assert.hpp"

namespace qvg {

CsdPlayback::CsdPlayback(const Csd& csd, double dwell_seconds)
    : csd_(csd), clock_(dwell_seconds) {
  QVG_EXPECTS(csd.width() > 0 && csd.height() > 0);
}

double CsdPlayback::lookup(double v1, double v2) const {
  const std::size_t x = csd_.x_axis().nearest_index(v1);
  const std::size_t y = csd_.y_axis().nearest_index(v2);
  return csd_.current(x, y);
}

double CsdPlayback::get_current(double v1, double v2) {
  ++probes_;
  clock_.charge_probe();
  return lookup(v1, v2);
}

void CsdPlayback::get_currents(std::span<const Point2> points,
                               std::span<double> out) {
  QVG_EXPECTS(points.size() == out.size());
  for (std::size_t i = 0; i < points.size(); ++i)
    out[i] = lookup(points[i].x, points[i].y);
  probes_ += static_cast<long>(points.size());
  clock_.charge_probes(points.size());
}

}  // namespace qvg
