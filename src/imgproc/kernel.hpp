// Convolution kernels, including the paper's hand-designed anchor-detection
// masks (§4.4).
#pragma once

#include "grid/grid2d.hpp"

#include <vector>

namespace qvg {

/// A small 2-D kernel with explicit width/height; entries are addressed as
/// (x, y) = (column, row), consistent with Grid2D.
using Kernel2D = Grid2D<double>;

/// 1-D Gaussian taps of given sigma; radius defaults to ceil(3*sigma).
/// Normalized to sum 1.
[[nodiscard]] std::vector<double> gaussian_taps(double sigma, int radius = -1);

/// 3x3 Sobel derivative kernels. sobel_x responds to horizontal gradients
/// (changes along x), sobel_y to vertical gradients.
[[nodiscard]] Kernel2D sobel_x_kernel();
[[nodiscard]] Kernel2D sobel_y_kernel();

/// The paper's Mask_x (3 rows x 5 columns): swept along the x axis to find
/// the anchor point on the steep (0,0)->(1,0) transition line. Positive
/// weights sit on the lower-left, negative on the upper-right, matching a
/// negatively sloped falling edge in sensor current.
[[nodiscard]] Kernel2D paper_mask_x();

/// The paper's Mask_y (5 rows x 3 columns): swept along the y axis to find
/// the anchor point on the shallow (0,0)->(0,1) transition line.
[[nodiscard]] Kernel2D paper_mask_y();

}  // namespace qvg
