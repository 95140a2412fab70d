// Sobel gradients: magnitude and direction fields used by Canny.
//
// sobel_gradients is one fused, row-parallel pass over the replicate-border
// image: per pixel it adds the six nonzero taps of each 3x3 kernel in
// collect_taps order (so gx / gy are bit-identical to correlate() with
// sobel_x_kernel / sobel_y_kernel) and evaluates the magnitude
// sqrt(gx^2 + gy^2) in the same registers, VecD lanes at a time with a
// scalar border. sobel_gradients_reference
// keeps the original std::hypot form as the exact-path ablation. The two
// agree to a small ULP bound (hypot is correctly rounded; the sqrt form
// rounds the two squarings and the sum first) — the bound is pinned by the
// sobel equivalence test, and gx/gy are bit-identical between the two.
// Overflow/underflow of the squared form is irrelevant at CSD magnitudes
// (normalized O(1) data), which is why the cheaper form is safe here.
#pragma once

#include "grid/grid2d.hpp"

namespace qvg {

struct GradientField {
  GridD gx;         // d/dx
  GridD gy;         // d/dy
  GridD magnitude;  // sqrt(gx^2 + gy^2)
};

/// One fused, row-parallel pass: gx, gy and the magnitude of every pixel.
[[nodiscard]] GradientField sobel_gradients(const GridD& image);

/// Exact-path ablation: std::hypot magnitude (pre-SIMD behaviour). gx/gy are
/// bit-identical to sobel_gradients; magnitude within the documented ULP
/// bound (see tests/imgproc_simd_test.cpp).
[[nodiscard]] GradientField sobel_gradients_reference(const GridD& image);

}  // namespace qvg
