#include "linalg/stats.hpp"

#include "common/assert.hpp"

#include <algorithm>

namespace qvg {

double percentile(std::vector<double> v, double p) {
  QVG_EXPECTS(!v.empty());
  QVG_EXPECTS(p >= 0.0 && p <= 100.0);
  if (v.size() == 1) return v[0];
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  // Selection, not a full sort: nth_element places the lo-th order statistic
  // at v[lo], and the (lo+1)-th is the minimum of the right partition. Both
  // are the same values a sort would put there, so results are unchanged —
  // this is O(n), and Canny's adaptive thresholds call it on every pixel
  // magnitude of the diagram (two sorts of 40k doubles dominated the whole
  // 200px detector before the switch).
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(lo),
                   v.end());
  const double vlo = v[lo];
  const double vhi =
      hi == lo ? vlo
               : *std::min_element(
                     v.begin() + static_cast<std::ptrdiff_t>(lo) + 1, v.end());
  return vlo * (1.0 - frac) + vhi * frac;
}

}  // namespace qvg
