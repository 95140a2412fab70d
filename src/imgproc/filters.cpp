#include "imgproc/filters.hpp"

#include "common/assert.hpp"
#include "imgproc/convolve.hpp"
#include "imgproc/kernel.hpp"

#include <algorithm>
#include <vector>

namespace qvg {

GridD gaussian_blur(const GridD& image, double sigma) {
  const auto taps = gaussian_taps(sigma);
  return correlate_separable(image, taps, taps, BorderMode::kReflect);
}

GridD median_filter(const GridD& image, int radius) {
  QVG_EXPECTS(radius >= 0);
  if (radius == 0) return image;
  GridD out(image.width(), image.height());
  std::vector<double> window;
  window.reserve(static_cast<std::size_t>((2 * radius + 1) * (2 * radius + 1)));
  for (std::size_t y = 0; y < image.height(); ++y) {
    for (std::size_t x = 0; x < image.width(); ++x) {
      window.clear();
      for (int dy = -radius; dy <= radius; ++dy)
        for (int dx = -radius; dx <= radius; ++dx)
          window.push_back(image.clamped(static_cast<std::ptrdiff_t>(x) + dx,
                                         static_cast<std::ptrdiff_t>(y) + dy));
      auto mid = window.begin() + static_cast<std::ptrdiff_t>(window.size() / 2);
      std::nth_element(window.begin(), mid, window.end());
      out(x, y) = *mid;
    }
  }
  return out;
}

GridD box_blur(const GridD& image, int radius) {
  QVG_EXPECTS(radius >= 0);
  if (radius == 0) return image;
  const auto n = static_cast<std::size_t>(2 * radius + 1);
  std::vector<double> taps(n, 1.0 / static_cast<double>(n));
  return correlate_separable(image, taps, taps, BorderMode::kReplicate);
}

GridD normalize01(const GridD& image) {
  QVG_EXPECTS(!image.empty());
  // One branch-free pass with four independent min/max chains (a single
  // chain is bound by the compare-select latency). The extremes' values do
  // not depend on the scan order, only the sign of a zero minimum does
  // (std::minmax_element keeps the first minimum, and x - lo differs between
  // lo = +0 and -0 for x = -0). So a zero minimum, like any NaN, whose
  // effect depends on where it sits, takes std::minmax_element itself.
  const std::vector<double>& v = image.raw();
  double lo4[4] = {v[0], v[0], v[0], v[0]};
  double hi4[4] = {v[0], v[0], v[0], v[0]};
  bool nan = false;
  std::size_t i = 0;
  for (; i + 4 <= v.size(); i += 4) {
    for (std::size_t j = 0; j < 4; ++j) {
      const double x = v[i + j];
      lo4[j] = x < lo4[j] ? x : lo4[j];
      hi4[j] = hi4[j] > x ? hi4[j] : x;
      nan |= x != x;
    }
  }
  for (; i < v.size(); ++i) {
    lo4[0] = v[i] < lo4[0] ? v[i] : lo4[0];
    hi4[0] = hi4[0] > v[i] ? hi4[0] : v[i];
    nan |= v[i] != v[i];
  }
  double lo = std::min({lo4[0], lo4[1], lo4[2], lo4[3]});
  double hi = std::max({hi4[0], hi4[1], hi4[2], hi4[3]});
  if (nan || lo == 0.0) {
    const auto [lo_it, hi_it] = std::minmax_element(v.begin(), v.end());
    lo = *lo_it;
    hi = *hi_it;
  }
  GridD out(image.width(), image.height());
  if (hi - lo < 1e-300) return out;  // constant image -> zeros
  const double scale = 1.0 / (hi - lo);
  for (std::size_t k = 0; k < v.size(); ++k) out.raw()[k] = (v[k] - lo) * scale;
  return out;
}

}  // namespace qvg
