// 2-D cross-correlation / convolution over Grid2D images.
//
// Every production path runs its pixels through one SIMD row kernel: an
// output pixel is sum_k w[k] * src_k[x] over one source pointer per tap,
// accumulated from 0.0 in tap order, four VecD accumulators (4 *
// simd::VecD::kLanes pixels) per step so the taps' add latencies overlap
// in registers, then one vector at a time and a scalar tail. correlate /
// convolve feed it the interior (kernel_interior_span) and take the border
// through the sampler; correlate_separable pads each row by the border rule
// and maps each vertical tap to a whole source row, so border pixels use
// the vector kernel too. The
// *_reference variants keep the pre-SIMD scalar implementation as the
// equivalence ablation. Both share the per-output-pixel accumulation order,
// so fast and reference results are bit-identical on every path — pinned by
// the kernel geometry tests (prime sizes, non-square, sub-kernel images,
// non-lane-multiple widths, 1xN/Nx1 grids).
#pragma once

#include "grid/grid2d.hpp"
#include "imgproc/kernel.hpp"

#include <cstddef>
#include <vector>

namespace qvg {

enum class BorderMode {
  kReplicate,  // clamp coordinates to the border (default)
  kReflect,    // mirror across the border
  kZero,       // treat outside pixels as 0
};

/// Half-open index range [lo, hi) along one axis where the full kernel
/// window is in bounds: the interior/border split of correlate / convolve;
/// empty (lo == hi) when the kernel is larger than the image.
struct InteriorSpan {
  std::ptrdiff_t lo = 0;
  std::ptrdiff_t hi = 0;
};
[[nodiscard]] InteriorSpan kernel_interior_span(std::ptrdiff_t extent,
                                                std::ptrdiff_t anchor,
                                                std::ptrdiff_t ksize) noexcept;

/// Cross-correlate `image` with `kernel` (no kernel flip; the paper's masks
/// are specified in correlation form). The anchor is the kernel center
/// (floor division for even sizes). Output has the same size as the input.
[[nodiscard]] GridD correlate(const GridD& image, const Kernel2D& kernel,
                              BorderMode border = BorderMode::kReplicate);

/// True convolution (kernel flipped in both axes).
[[nodiscard]] GridD convolve(const GridD& image, const Kernel2D& kernel,
                             BorderMode border = BorderMode::kReplicate);

/// Separable correlation with a horizontal then vertical 1-D tap vector.
[[nodiscard]] GridD correlate_separable(const GridD& image,
                                        const std::vector<double>& taps_x,
                                        const std::vector<double>& taps_y,
                                        BorderMode border = BorderMode::kReplicate);

/// Pre-SIMD scalar implementations, kept as the equivalence tests' oracles.
/// Bit-identical to the fast paths.
[[nodiscard]] GridD correlate_reference(const GridD& image, const Kernel2D& kernel,
                                        BorderMode border = BorderMode::kReplicate);
[[nodiscard]] GridD convolve_reference(const GridD& image, const Kernel2D& kernel,
                                       BorderMode border = BorderMode::kReplicate);
[[nodiscard]] GridD correlate_separable_reference(
    const GridD& image, const std::vector<double>& taps_x,
    const std::vector<double>& taps_y,
    BorderMode border = BorderMode::kReplicate);

}  // namespace qvg
