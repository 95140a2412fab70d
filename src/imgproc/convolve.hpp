// 2-D cross-correlation over Grid2D images.
//
// correlate_separable, the production path (gaussian_blur), runs every
// pixel through one SIMD row kernel: an output pixel is sum_k w[k] *
// src_k[x] over one source pointer per tap, accumulated from 0.0 in tap
// order, four VecD accumulators (4 * simd::VecD::kLanes pixels) per step so
// the taps' add latencies overlap in registers, then one vector at a time
// and a scalar tail. It pads each row by the border rule and maps each
// vertical tap to a whole source row, so border pixels use the vector
// kernel too. correlate_separable_reference keeps the pre-SIMD scalar
// implementation as the equivalence oracle. Both share the per-output-pixel
// accumulation order, so their results are bit-identical — pinned by the
// kernel geometry tests (prime sizes, non-square, sub-kernel images,
// non-lane-multiple widths, 1xN/Nx1 grids, even tap counts).
// correlate_reference is the scalar full 2-D correlation behind the Sobel
// oracle, sobel_gradients_reference.
#pragma once

#include "grid/grid2d.hpp"
#include "imgproc/kernel.hpp"

#include <vector>

namespace qvg {

enum class BorderMode {
  kReplicate,  // clamp coordinates to the border (default)
  kReflect,    // mirror across the border
  kZero,       // treat outside pixels as 0
};

/// Separable correlation with a horizontal then vertical 1-D tap vector.
[[nodiscard]] GridD correlate_separable(const GridD& image,
                                        const std::vector<double>& taps_x,
                                        const std::vector<double>& taps_y,
                                        BorderMode border = BorderMode::kReplicate);

/// Cross-correlate `image` with `kernel`, scalar (no kernel flip; the
/// paper's masks are specified in correlation form). The anchor is the
/// kernel center (floor division for even sizes). Output has the same size
/// as the input. The Sobel oracle's core.
[[nodiscard]] GridD correlate_reference(const GridD& image, const Kernel2D& kernel,
                                        BorderMode border = BorderMode::kReplicate);

/// Pre-SIMD scalar correlate_separable, kept as the equivalence tests'
/// oracle. Bit-identical to the fast path.
[[nodiscard]] GridD correlate_separable_reference(
    const GridD& image, const std::vector<double>& taps_x,
    const std::vector<double>& taps_y,
    BorderMode border = BorderMode::kReplicate);

}  // namespace qvg
