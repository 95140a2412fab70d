#include "imgproc/canny.hpp"

#include "common/assert.hpp"
#include "common/thread_pool.hpp"
#include "imgproc/filters.hpp"
#include "imgproc/sobel.hpp"
#include "linalg/stats.hpp"

#include <cmath>
#include <cstdint>
#include <numbers>
#include <vector>

namespace qvg {

namespace {

/// Pixel classes of the NMS map; hysteresis turns reached pixels into kEdge.
constexpr std::uint8_t kNone = 0;
constexpr std::uint8_t kWeak = 1;
constexpr std::uint8_t kStrong = 2;
constexpr std::uint8_t kEdge = 3;

/// NMS neighbor offsets along the gradient, indexed by sector.
constexpr int kSectorNeighbors[4][2][2] = {
    {{1, 0}, {-1, 0}},    // 0: horizontal
    {{1, 1}, {-1, -1}},   // 1: diagonal /
    {{0, 1}, {0, -1}},    // 2: vertical
    {{-1, 1}, {1, -1}},   // 3: diagonal \.
};

}  // namespace

int canny_sector(double gx, double gy) noexcept {
  // Direction is modulo 180 degrees: fold into the gy >= 0 half-plane (a
  // 180-degree rotation keeps the sector). The sector boundaries are at
  // 22.5 + 45k degrees; tan(22.5 deg) = sqrt(2) - 1 and tan(67.5 deg) =
  // sqrt(2) + 1 exactly, so two multiplies and two compares classify the
  // angle without atan2. Exact-boundary ties keep the atan2 convention
  // (deg in [22.5, 67.5) -> '/', [67.5, 112.5) -> vertical, ...): the left
  // edge of each sector belongs to it, which for the folded ladder means a
  // tie resolves by the sign of gx.
  if (gy < 0.0) {
    gx = -gx;
    gy = -gy;
  }
  if (gy == 0.0) return 0;  // includes the zero gradient: atan2(0, x) sector
  constexpr double kTan22 = std::numbers::sqrt2 - 1.0;
  constexpr double kTan67 = std::numbers::sqrt2 + 1.0;
  const double ax = gx < 0.0 ? -gx : gx;
  const double t22 = kTan22 * ax;
  const double t67 = kTan67 * ax;
  if (gy < t22 || (gy == t22 && gx < 0.0)) return 0;
  if (gy < t67 || (gy == t67 && gx < 0.0)) return gx > 0.0 ? 1 : 3;
  return 2;
}

int canny_sector_reference(double gx, double gy) {
  const double angle = std::atan2(gy, gx);  // [-pi, pi]
  double deg = angle * 180.0 / std::numbers::pi;
  if (deg < 0) deg += 180.0;  // direction is modulo 180
  if (deg < 22.5 || deg >= 157.5) return 0;  // horizontal
  if (deg < 67.5) return 1;                  // diagonal /
  if (deg < 112.5) return 2;                 // vertical
  return 3;                                  // diagonal \.
}

namespace {

/// Shared back half of the detector: threshold resolution, NMS, hysteresis
/// over a magnitude image. `sector_of(x, y)` gives the NMS direction sector
/// of a pixel (the ladder for canny, the atan2 oracle for canny_reference);
/// it is called only for pixels that reach the low threshold.
template <typename SectorOf>
GridU8 canny_impl(const CannyOptions& opt, const GridD& magnitude,
                  SectorOf sector_of) {
  // Resolve thresholds.
  double low = opt.low_threshold;
  double high = opt.high_threshold;
  if (low < 0.0 || high < 0.0) {
    std::vector<double> nonzero;
    nonzero.reserve(magnitude.raw().size());
    for (double m : magnitude.raw())
      if (m > 1e-12) nonzero.push_back(m);
    if (nonzero.empty()) return GridU8(magnitude.width(), magnitude.height(), 0);
    if (low < 0.0) low = percentile(nonzero, opt.low_quantile * 100.0);
    if (high < 0.0) high = percentile(nonzero, opt.high_quantile * 100.0);
  }
  QVG_ENSURES(high >= low);

  const auto w = magnitude.width();
  const auto h = magnitude.height();
  const auto sw = static_cast<std::ptrdiff_t>(w);

  // Non-maximum suppression into a class map. A pixel keeps its magnitude t
  // when it reaches `low` and is a maximum along its gradient sector (else
  // t = 0), and is classified by t: strong (t >= high), weak (t >= low) or
  // none. Classifying a suppressed pixel as t = 0 keeps thresholds <= 0
  // exact. Pure per-pixel function of the gradient field, so the
  // row-parallel scan is bit-identical to the serial one. Interior pixels
  // read their two neighbours at fixed offsets; the outer ring clamps. The
  // class map is the edge map's own storage: no intermediate image.
  GridU8 edges(w, h, kNone);
  const auto classify = [&](double t) -> std::uint8_t {
    return t >= high ? kStrong : t >= low ? kWeak : kNone;
  };
  const std::uint8_t suppressed = classify(0.0);
  std::ptrdiff_t offsets[4][2];
  for (int s = 0; s < 4; ++s)
    for (int j = 0; j < 2; ++j)
      offsets[s][j] = kSectorNeighbors[s][j][0] + kSectorNeighbors[s][j][1] * sw;
  const double* mag = magnitude.raw().data();
  std::uint8_t* cls = edges.raw().data();
  parallel_for_rows(h, [&](std::size_t y0, std::size_t y1) {
    for (std::size_t y = y0; y < y1; ++y) {
      const bool interior_row = y >= 1 && y + 1 < h;
      for (std::size_t x = 0; x < w; ++x) {
        const std::size_t i = y * w + x;
        const double m = mag[i];
        std::uint8_t c = suppressed;
        if (!(m < low)) {
          const int sector = sector_of(x, y);
          double m1;
          double m2;
          if (interior_row && x >= 1 && x + 1 < w) {
            m1 = mag[static_cast<std::ptrdiff_t>(i) + offsets[sector][0]];
            m2 = mag[static_cast<std::ptrdiff_t>(i) + offsets[sector][1]];
          } else {
            const auto& n = kSectorNeighbors[sector];
            const auto px = static_cast<std::ptrdiff_t>(x);
            const auto py = static_cast<std::ptrdiff_t>(y);
            m1 = magnitude.clamped(px + n[0][0], py + n[0][1]);
            m2 = magnitude.clamped(px + n[1][0], py + n[1][1]);
          }
          if (m >= m1 && m >= m2) c = classify(m);
        }
        cls[i] = c;
      }
    }
  });

  // Hysteresis: strong pixels seed a flood fill through weak pixels,
  // marking every reached pixel kEdge in place; the edge set is the 8-way
  // closure of the strong pixels, whatever the visiting order.
  std::vector<std::size_t> stack;
  for (std::size_t i = 0; i < w * h; ++i)
    if (cls[i] == kStrong) {
      cls[i] = kEdge;
      stack.push_back(i);
    }
  while (!stack.empty()) {
    const std::size_t i = stack.back();
    stack.pop_back();
    const auto cx = static_cast<std::ptrdiff_t>(i % w);
    const auto cy = static_cast<std::ptrdiff_t>(i / w);
    for (std::ptrdiff_t dy = -1; dy <= 1; ++dy) {
      for (std::ptrdiff_t dx = -1; dx <= 1; ++dx) {
        if (!edges.in_bounds(cx + dx, cy + dy)) continue;
        const auto j = static_cast<std::size_t>((cy + dy) * sw + cx + dx);
        if (cls[j] == kWeak) {
          cls[j] = kEdge;
          stack.push_back(j);
        }
      }
    }
  }
  for (std::size_t i = 0; i < w * h; ++i) cls[i] = cls[i] == kEdge ? 1 : 0;
  return edges;
}

}  // namespace

GridU8 canny(const GridD& image, const CannyOptions& opt) {
  QVG_EXPECTS(image.width() >= 3 && image.height() >= 3);
  const GridD smoothed = gaussian_blur(image, opt.gaussian_sigma);
  const GradientField grad = sobel_gradients(smoothed);
  return canny_impl(opt, grad.magnitude, [&](std::size_t x, std::size_t y) {
    return canny_sector(grad.gx(x, y), grad.gy(x, y));
  });
}

GridU8 canny_reference(const GridD& image, const CannyOptions& opt) {
  QVG_EXPECTS(image.width() >= 3 && image.height() >= 3);
  // gaussian_blur routes through correlate_separable (SIMD), which is
  // bit-identical to the reference separable pass — the ablation's exactness
  // lives in the hypot magnitude and atan2 sectors.
  const GridD smoothed = gaussian_blur(image, opt.gaussian_sigma);
  const GradientField grad = sobel_gradients_reference(smoothed);
  return canny_impl(opt, grad.magnitude, [&](std::size_t x, std::size_t y) {
    return canny_sector_reference(grad.gx(x, y), grad.gy(x, y));
  });
}

}  // namespace qvg
