#include "grid/axis.hpp"

#include "common/assert.hpp"

namespace qvg {

VoltageAxis::VoltageAxis(double start, double step, std::size_t count)
    : start_(start), step_(step), count_(count) {
  QVG_EXPECTS(step > 0.0);
  QVG_EXPECTS(count >= 1);
}

VoltageAxis VoltageAxis::over_range(double lo, double hi, std::size_t count) {
  QVG_EXPECTS(hi > lo);
  QVG_EXPECTS(count >= 2);
  const double step = (hi - lo) / static_cast<double>(count - 1);
  return VoltageAxis(lo, step, count);
}

}  // namespace qvg
