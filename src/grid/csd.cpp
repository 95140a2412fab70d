#include "grid/csd.hpp"

#include "common/assert.hpp"

#include <algorithm>

namespace qvg {

Csd::Csd(VoltageAxis x_axis, VoltageAxis y_axis)
    : x_axis_(x_axis),
      y_axis_(y_axis),
      grid_(x_axis.count(), y_axis.count(), 0.0) {}

std::pair<double, double> Csd::current_range() const {
  QVG_EXPECTS(!grid_.empty());
  const auto& data = grid_.raw();
  const auto [lo, hi] = std::minmax_element(data.begin(), data.end());
  return {*lo, *hi};
}

}  // namespace qvg
