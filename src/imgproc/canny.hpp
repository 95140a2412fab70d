// Canny edge detector: Gaussian smoothing, Sobel gradients, non-maximum
// suppression, double-threshold hysteresis. This is the edge-detection stage
// of the paper's baseline (OpenCV Canny in the original evaluation).
//
// Hot-path form: the Gaussian runs the streaming SIMD separable correlation,
// the Sobel field is one fused pass, and NMS classifies the direction of
// each pixel that reaches the low threshold with a branch-light tangent
// comparison ladder (canny_sector) instead of a per-pixel atan2. NMS writes
// each pixel's strong / weak / none class straight into the edge map's
// storage (interior pixels read their neighbours at fixed offsets, only the
// outer ring clamps), and hysteresis floods over that map in place; no
// intermediate thinned image exists. canny_reference
// keeps the pre-SIMD pipeline (hypot magnitude + atan2 sectors) as the
// exact-path ablation; sectors agree with the reference on every
// non-boundary gradient (pinned exhaustively on an integer gradient sweep —
// only directions within rounding distance of the 22.5-degree sector
// boundaries, a measure-zero set the sweep proves empty for real Sobel
// outputs, may differ), and edge maps are compared in the kernel
// equivalence tests.
#pragma once

#include "grid/grid2d.hpp"

namespace qvg {

struct CannyOptions {
  double gaussian_sigma = 1.4;
  /// Thresholds on the gradient magnitude expressed as quantiles of the
  /// nonzero magnitude distribution, so the detector adapts to the CSD's
  /// contrast (OpenCV users typically hand-tune absolute values instead).
  double low_quantile = 0.80;
  double high_quantile = 0.92;
  /// Absolute thresholds override the quantiles when >= 0.
  double low_threshold = -1.0;
  double high_threshold = -1.0;
};

/// Returns a binary edge map (1 = edge pixel, 0 = background).
[[nodiscard]] GridU8 canny(const GridD& image, const CannyOptions& options = {});

/// Pre-SIMD ablation pipeline: reference convolutions, hypot magnitude,
/// atan2 sector classification. Same hysteresis.
[[nodiscard]] GridU8 canny_reference(const GridD& image,
                                     const CannyOptions& options = {});

/// NMS direction sector of a gradient, modulo 180 degrees: 0 = horizontal
/// (neighbors +-x), 1 = diagonal '/', 2 = vertical, 3 = diagonal '\'.
/// Branch-light tangent comparison ladder; no trigonometry.
[[nodiscard]] int canny_sector(double gx, double gy) noexcept;

/// atan2-based sector classification (the pre-PR 7 implementation), kept as
/// the oracle for the exhaustive sector-equivalence sweep.
[[nodiscard]] int canny_sector_reference(double gx, double gy);

}  // namespace qvg
