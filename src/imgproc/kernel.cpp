#include "imgproc/kernel.hpp"

#include "common/assert.hpp"

#include <cmath>

namespace qvg {

namespace {

// Build a kernel from paper-style matrix rows (first row = top). Our Grid2D
// convention has y increasing upward, so the first matrix row is stored at
// the highest y index.
Kernel2D from_matrix_rows(const std::vector<std::vector<double>>& rows) {
  QVG_EXPECTS(!rows.empty() && !rows[0].empty());
  const std::size_t h = rows.size();
  const std::size_t w = rows[0].size();
  Kernel2D k(w, h);
  for (std::size_t r = 0; r < h; ++r) {
    QVG_EXPECTS(rows[r].size() == w);
    const std::size_t y = h - 1 - r;  // top matrix row -> highest y
    for (std::size_t x = 0; x < w; ++x) k(x, y) = rows[r][x];
  }
  return k;
}

}  // namespace

std::vector<double> gaussian_taps(double sigma, int radius) {
  QVG_EXPECTS(sigma > 0.0);
  if (radius < 0) radius = static_cast<int>(std::ceil(3.0 * sigma));
  QVG_EXPECTS(radius >= 0);
  std::vector<double> taps(static_cast<std::size_t>(2 * radius + 1));
  double sum = 0.0;
  for (int i = -radius; i <= radius; ++i) {
    const double v = std::exp(-0.5 * (i / sigma) * (i / sigma));
    taps[static_cast<std::size_t>(i + radius)] = v;
    sum += v;
  }
  for (double& t : taps) t /= sum;
  return taps;
}

Kernel2D sobel_x_kernel() {
  return from_matrix_rows({{-1, 0, 1},
                           {-2, 0, 2},
                           {-1, 0, 1}});
}

Kernel2D sobel_y_kernel() {
  return from_matrix_rows({{1, 2, 1},
                           {0, 0, 0},
                           {-1, -2, -1}});
}

Kernel2D paper_mask_x() {
  // §4.4, Mask_x verbatim (first row = top). Positive weights lower-left,
  // negative upper-right: matches a negatively sloped falling edge in the
  // sensor current as VP1 increases (the steep transition line).
  return from_matrix_rows({{1, 1, -3, -4, -4},
                           {2, 2, 0, -2, -2},
                           {4, 4, 3, -1, -1}});
}

Kernel2D paper_mask_y() {
  // §4.4, Mask_y verbatim (first row = top).
  return from_matrix_rows({{-1, -2, -4},
                           {-1, -2, -4},
                           {3, 0, -3},
                           {4, 2, 1},
                           {4, 2, 1}});
}

}  // namespace qvg
