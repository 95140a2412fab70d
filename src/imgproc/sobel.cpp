#include "imgproc/sobel.hpp"

#include "common/assert.hpp"
#include "common/simd.hpp"
#include "common/thread_pool.hpp"
#include "imgproc/convolve.hpp"
#include "imgproc/kernel.hpp"

#include <algorithm>
#include <cmath>
#include <type_traits>

namespace qvg {

namespace {

/// gx, gy and the magnitude of one pixel (V = double) or of VecD::kLanes
/// adjacent pixels (V = VecD) from the 3x3 neighbourhood n[row][col], row 0
/// at y - 1 and col 0 at x - 1. Each gradient starts at 0.0 and adds the six
/// nonzero Sobel taps in collect_taps order (kernel row ky ascending, then
/// kx; the kernels store their bottom matrix row at ky = 0), so the sums
/// are bit-identical to correlate() with sobel_x_kernel / sobel_y_kernel.
/// Always inlined: the whole neighbourhood has to stay in registers.
template <typename V>
[[gnu::always_inline]] inline void sobel_pixel(const V (&n)[3][3], V& gx,
                                               V& gy, V& mag) {
  const auto w = [](double c) {
    if constexpr (std::is_same_v<V, double>) return c;
    else return V::broadcast(c);
  };
  gx = w(0.0);
  gx += w(-1.0) * n[0][0];
  gx += w(1.0) * n[0][2];
  gx += w(-2.0) * n[1][0];
  gx += w(2.0) * n[1][2];
  gx += w(-1.0) * n[2][0];
  gx += w(1.0) * n[2][2];
  gy = w(0.0);
  gy += w(-1.0) * n[0][0];
  gy += w(-2.0) * n[0][1];
  gy += w(-1.0) * n[0][2];
  gy += w(1.0) * n[2][0];
  gy += w(2.0) * n[2][1];
  gy += w(1.0) * n[2][2];
  using std::sqrt;  // simd::sqrt by argument-dependent lookup for VecD
  mag = sqrt(gx * gx + gy * gy);
}

/// Pixel x of a row, scalar, with the replicate border's clamped columns.
void scalar_pixel(const double* const (&rows)[3], std::ptrdiff_t width,
                  std::ptrdiff_t x, double& gx, double& gy, double& mag) {
  const std::ptrdiff_t cols[3] = {std::max<std::ptrdiff_t>(x - 1, 0), x,
                                  std::min(x + 1, width - 1)};
  double n[3][3];
  for (int r = 0; r < 3; ++r)
    for (int c = 0; c < 3; ++c) n[r][c] = rows[r][cols[c]];
  sobel_pixel(n, gx, gy, mag);
}

}  // namespace

GradientField sobel_gradients(const GridD& image) {
  QVG_EXPECTS(!image.empty());
  const auto width = static_cast<std::ptrdiff_t>(image.width());
  const auto height = static_cast<std::ptrdiff_t>(image.height());
  GradientField field{GridD(image.width(), image.height()),
                      GridD(image.width(), image.height()),
                      GridD(image.width(), image.height())};
  const double* src = image.raw().data();
  using simd::VecD;
  constexpr auto kLanes = static_cast<std::ptrdiff_t>(VecD::kLanes);

  parallel_for_rows(image.height(), [&](std::size_t y0, std::size_t y1) {
    for (std::size_t yu = y0; yu < y1; ++yu) {
      const auto y = static_cast<std::ptrdiff_t>(yu);
      // Replicate border: the rows above and below clamp to the image.
      const double* rows[3] = {src + std::max<std::ptrdiff_t>(y - 1, 0) * width,
                               src + y * width,
                               src + std::min(y + 1, height - 1) * width};
      double* gx = field.gx.raw().data() + y * width;
      double* gy = field.gy.raw().data() + y * width;
      double* mag = field.magnitude.raw().data() + y * width;
      scalar_pixel(rows, width, 0, gx[0], gy[0], mag[0]);
      std::ptrdiff_t x = 1;
      for (; x + kLanes <= width - 1; x += kLanes) {
        VecD n[3][3];
        for (int r = 0; r < 3; ++r)
          for (int c = 0; c < 3; ++c)
            n[r][c] = VecD::load(rows[r] + x + c - 1);
        VecD vx;
        VecD vy;
        VecD vm;
        sobel_pixel(n, vx, vy, vm);
        vx.store(gx + x);
        vy.store(gy + x);
        vm.store(mag + x);
      }
      for (; x < width; ++x) scalar_pixel(rows, width, x, gx[x], gy[x], mag[x]);
    }
  });
  return field;
}

GradientField sobel_gradients_reference(const GridD& image) {
  GradientField field;
  field.gx = correlate_reference(image, sobel_x_kernel(), BorderMode::kReplicate);
  field.gy = correlate_reference(image, sobel_y_kernel(), BorderMode::kReplicate);
  field.magnitude = GridD(image.width(), image.height());
  for (std::size_t i = 0; i < image.raw().size(); ++i)
    field.magnitude.raw()[i] =
        std::hypot(field.gx.raw()[i], field.gy.raw()[i]);
  return field;
}

}  // namespace qvg
