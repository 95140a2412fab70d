// Smoothing filters.
#pragma once

#include "grid/grid2d.hpp"

namespace qvg {

/// Separable Gaussian blur.
[[nodiscard]] GridD gaussian_blur(const GridD& image, double sigma);

/// Normalize image values to [0, 1] (constant images map to all zeros).
[[nodiscard]] GridD normalize01(const GridD& image);

}  // namespace qvg
