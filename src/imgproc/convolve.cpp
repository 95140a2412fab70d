#include "imgproc/convolve.hpp"

#include "common/assert.hpp"
#include "common/simd.hpp"
#include "common/thread_pool.hpp"

#include <cstring>

namespace qvg {

InteriorSpan kernel_interior_span(std::ptrdiff_t extent, std::ptrdiff_t anchor,
                                  std::ptrdiff_t ksize) noexcept {
  // Position p is interior iff the whole window fits: p - anchor >= 0 and
  // p - anchor + ksize <= extent. Kernels larger than the image produce an
  // empty span (every pixel border-handled).
  InteriorSpan span;
  span.lo = anchor;
  span.hi = extent - (ksize - 1 - anchor);
  if (span.lo > extent) span.lo = extent;
  if (span.hi < span.lo) span.hi = span.lo;
  return span;
}

namespace {

/// Source index for coordinate `v` on an axis of `n` pixels under `border`:
/// `v` itself when in range, otherwise the clamped or reflected index, or -1
/// for a zero-border pixel.
std::ptrdiff_t border_index(std::ptrdiff_t v, std::ptrdiff_t n,
                            BorderMode border) {
  if (v >= 0 && v < n) return v;
  switch (border) {
    case BorderMode::kZero:
      return -1;
    case BorderMode::kReplicate:
      return v < 0 ? 0 : n - 1;
    case BorderMode::kReflect:
      // Reflect-101 style without repeating the border pixel.
      while (v < 0 || v >= n) {
        if (v < 0) v = -v;
        if (v >= n) v = 2 * (n - 1) - v;
      }
      return v;
  }
  return -1;
}

double sample(const GridD& image, std::ptrdiff_t x, std::ptrdiff_t y,
              BorderMode border) {
  const std::ptrdiff_t sx =
      border_index(x, static_cast<std::ptrdiff_t>(image.width()), border);
  const std::ptrdiff_t sy =
      border_index(y, static_cast<std::ptrdiff_t>(image.height()), border);
  if (sx < 0 || sy < 0) return 0.0;
  return image(static_cast<std::size_t>(sx), static_cast<std::size_t>(sy));
}

/// out[x] = sum_k w[k] * src[k][x] for x in [0, n): every output starts at
/// 0.0 and adds its taps in ascending k, exactly the scalar reference loop.
/// The SIMD interior keeps four VecD accumulators (4 * kLanes pixels) in
/// registers per step, so consecutive taps' add latencies overlap; one
/// vector at a time and a scalar tail finish the row. Every convolution
/// path runs its pixels through here.
void weighted_sum(const double* const* src, const double* w, std::size_t taps,
                  double* out, std::ptrdiff_t n) {
  using simd::VecD;
  constexpr auto kLanes = static_cast<std::ptrdiff_t>(VecD::kLanes);
  std::ptrdiff_t x = 0;
  for (; x + 4 * kLanes <= n; x += 4 * kLanes) {
    VecD a0 = VecD::zero();
    VecD a1 = VecD::zero();
    VecD a2 = VecD::zero();
    VecD a3 = VecD::zero();
    for (std::size_t k = 0; k < taps; ++k) {
      const VecD wk = VecD::broadcast(w[k]);
      const double* s = src[k] + x;
      a0 += wk * VecD::load(s);
      a1 += wk * VecD::load(s + kLanes);
      a2 += wk * VecD::load(s + 2 * kLanes);
      a3 += wk * VecD::load(s + 3 * kLanes);
    }
    a0.store(out + x);
    a1.store(out + x + kLanes);
    a2.store(out + x + 2 * kLanes);
    a3.store(out + x + 3 * kLanes);
  }
  for (; x + kLanes <= n; x += kLanes) {
    VecD acc = VecD::zero();
    for (std::size_t k = 0; k < taps; ++k)
      acc += VecD::broadcast(w[k]) * VecD::load(src[k] + x);
    acc.store(out + x);
  }
  for (; x < n; ++x) {
    double acc = 0.0;
    for (std::size_t k = 0; k < taps; ++k) acc += w[k] * src[k][x];
    out[x] = acc;
  }
}

/// One nonzero kernel tap: offsets relative to the anchored output pixel.
struct Tap {
  std::ptrdiff_t dx;
  std::ptrdiff_t dy;
  double w;
};

/// Nonzero taps in the reference scan order (ky ascending, then kx), with
/// the optional double flip applied as an index view. Skipping zero weights
/// here matches the reference loop's per-tap `w == 0` skip for every pixel,
/// so accumulation sequences stay identical.
std::vector<Tap> collect_taps(const Kernel2D& kernel, bool flip,
                              std::ptrdiff_t ax, std::ptrdiff_t ay) {
  const auto kw = static_cast<std::ptrdiff_t>(kernel.width());
  const auto kh = static_cast<std::ptrdiff_t>(kernel.height());
  std::vector<Tap> taps;
  taps.reserve(kernel.raw().size());
  for (std::ptrdiff_t ky = 0; ky < kh; ++ky) {
    for (std::ptrdiff_t kx = 0; kx < kw; ++kx) {
      const std::ptrdiff_t sx = flip ? kw - 1 - kx : kx;
      const std::ptrdiff_t sy = flip ? kh - 1 - ky : ky;
      const double w = kernel(static_cast<std::size_t>(sx),
                              static_cast<std::size_t>(sy));
      if (w == 0.0) continue;
      taps.push_back({kx - ax, ky - ay, w});
    }
  }
  return taps;
}

/// Border-pixel accumulation through the boundary sampler, in tap order.
double sampled_pixel(const GridD& image, std::ptrdiff_t x, std::ptrdiff_t y,
                     const std::vector<Tap>& taps, BorderMode border) {
  double acc = 0.0;
  for (const Tap& t : taps) acc += t.w * sample(image, x + t.dx, y + t.dy, border);
  return acc;
}

/// Shared correlation core, SIMD interior. `flip` selects true convolution
/// (kernel mirrored in both axes) as an index view — no flipped copy is
/// materialized. Row-parallel: every output row is written by exactly one
/// chunk. Interior pixels (full window in bounds, via kernel_interior_span)
/// run through weighted_sum with one source pointer per tap, in the
/// reference scan order; the border columns/rows use the same tap sequence
/// through the sampler, so every output pixel accumulates in exactly the
/// reference order and the result is bit-identical to correlate_reference on
/// all paths.
GridD correlate_simd(const GridD& image, const Kernel2D& kernel,
                     BorderMode border, bool flip) {
  QVG_EXPECTS(!image.empty());
  QVG_EXPECTS(!kernel.empty());
  const auto kw = static_cast<std::ptrdiff_t>(kernel.width());
  const auto kh = static_cast<std::ptrdiff_t>(kernel.height());
  const std::ptrdiff_t ax = kw / 2;  // anchor: kernel center
  const std::ptrdiff_t ay = kh / 2;
  const auto width = static_cast<std::ptrdiff_t>(image.width());
  const auto height = static_cast<std::ptrdiff_t>(image.height());
  const std::vector<Tap> taps = collect_taps(kernel, flip, ax, ay);
  std::vector<double> weights;
  weights.reserve(taps.size());
  for (const Tap& t : taps) weights.push_back(t.w);

  const auto [xlo, xhi] = kernel_interior_span(width, ax, kw);
  const auto [ylo, yhi] = kernel_interior_span(height, ay, kh);

  GridD out(image.width(), image.height());
  const double* src = image.raw().data();
  double* dst = out.raw().data();

  parallel_for_rows(image.height(), [&](std::size_t y0, std::size_t y1) {
    std::vector<const double*> rows(taps.size());
    for (std::size_t yu = y0; yu < y1; ++yu) {
      const auto y = static_cast<std::ptrdiff_t>(yu);
      double* out_row = dst + y * width;
      if (y < ylo || y >= yhi) {
        for (std::ptrdiff_t x = 0; x < width; ++x)
          out_row[x] = sampled_pixel(image, x, y, taps, border);
        continue;
      }
      for (std::ptrdiff_t x = 0; x < xlo; ++x)
        out_row[x] = sampled_pixel(image, x, y, taps, border);
      if (xhi > xlo) {  // else a tap's row view could point past the image
        for (std::size_t k = 0; k < taps.size(); ++k)
          rows[k] = src + (y + taps[k].dy) * width + xlo + taps[k].dx;
        weighted_sum(rows.data(), weights.data(), taps.size(), out_row + xlo,
                     xhi - xlo);
      }
      for (std::ptrdiff_t x = xhi; x < width; ++x)
        out_row[x] = sampled_pixel(image, x, y, taps, border);
    }
  });
  return out;
}

/// The scalar reference core (pre-SIMD implementation, kept verbatim as the
/// equivalence ablation). Per-pixel interior test, same accumulation order.
GridD correlate_impl_reference(const GridD& image, const Kernel2D& kernel,
                               BorderMode border, bool flip) {
  QVG_EXPECTS(!image.empty());
  QVG_EXPECTS(!kernel.empty());
  const auto kw = static_cast<std::ptrdiff_t>(kernel.width());
  const auto kh = static_cast<std::ptrdiff_t>(kernel.height());
  const std::ptrdiff_t ax = kw / 2;  // anchor: kernel center
  const std::ptrdiff_t ay = kh / 2;
  const auto width = static_cast<std::ptrdiff_t>(image.width());
  const auto height = static_cast<std::ptrdiff_t>(image.height());

  auto weight = [&](std::ptrdiff_t kx, std::ptrdiff_t ky) {
    if (flip) {
      kx = kw - 1 - kx;
      ky = kh - 1 - ky;
    }
    return kernel(static_cast<std::size_t>(kx), static_cast<std::size_t>(ky));
  };

  GridD out(image.width(), image.height());
  parallel_for_rows(image.height(), [&](std::size_t y0, std::size_t y1) {
    for (std::size_t y = y0; y < y1; ++y) {
      const auto sy = static_cast<std::ptrdiff_t>(y);
      const bool y_interior = sy - ay >= 0 && sy - ay + kh <= height;
      for (std::size_t x = 0; x < image.width(); ++x) {
        const auto sx = static_cast<std::ptrdiff_t>(x);
        double acc = 0.0;
        if (y_interior && sx - ax >= 0 && sx - ax + kw <= width) {
          for (std::ptrdiff_t ky = 0; ky < kh; ++ky) {
            for (std::ptrdiff_t kx = 0; kx < kw; ++kx) {
              const double w = weight(kx, ky);
              if (w == 0.0) continue;
              acc += w * image(static_cast<std::size_t>(sx + kx - ax),
                               static_cast<std::size_t>(sy + ky - ay));
            }
          }
        } else {
          for (std::ptrdiff_t ky = 0; ky < kh; ++ky) {
            for (std::ptrdiff_t kx = 0; kx < kw; ++kx) {
              const double w = weight(kx, ky);
              if (w == 0.0) continue;
              acc += w * sample(image, sx + kx - ax, sy + ky - ay, border);
            }
          }
        }
        out(x, y) = acc;
      }
    }
  });
  return out;
}

}  // namespace

GridD correlate(const GridD& image, const Kernel2D& kernel, BorderMode border) {
  return correlate_simd(image, kernel, border, /*flip=*/false);
}

GridD convolve(const GridD& image, const Kernel2D& kernel, BorderMode border) {
  // Convolution = correlation with a doubly flipped kernel, applied as an
  // index view instead of allocating and flipping a copy per call.
  return correlate_simd(image, kernel, border, /*flip=*/true);
}

GridD correlate_reference(const GridD& image, const Kernel2D& kernel,
                          BorderMode border) {
  return correlate_impl_reference(image, kernel, border, /*flip=*/false);
}

GridD convolve_reference(const GridD& image, const Kernel2D& kernel,
                         BorderMode border) {
  return correlate_impl_reference(image, kernel, border, /*flip=*/true);
}

GridD correlate_separable(const GridD& image, const std::vector<double>& taps_x,
                          const std::vector<double>& taps_y, BorderMode border) {
  QVG_EXPECTS(!image.empty());
  QVG_EXPECTS(!taps_x.empty() && !taps_y.empty());
  const auto nx = static_cast<std::ptrdiff_t>(taps_x.size());
  const std::ptrdiff_t rx = nx / 2;
  const std::ptrdiff_t ry = static_cast<std::ptrdiff_t>(taps_y.size()) / 2;
  const auto width = static_cast<std::ptrdiff_t>(image.width());
  const auto height = static_cast<std::ptrdiff_t>(image.height());

  // Horizontal pass: each row is copied into a buffer padded by the border
  // rule (padding pixel i holds sample(i - rx, y)), so every output pixel,
  // border columns included, is the same weighted_sum over shifted views of
  // one buffer and adds the reference's sampled values in tap order.
  GridD tmp(image.width(), image.height());
  {
    const double* src = image.raw().data();
    double* dst = tmp.raw().data();
    parallel_for_rows(image.height(), [&](std::size_t y0, std::size_t y1) {
      std::vector<double> padded(static_cast<std::size_t>(width + nx - 1));
      std::vector<const double*> views(taps_x.size());
      for (std::size_t k = 0; k < views.size(); ++k) views[k] = padded.data() + k;
      for (std::size_t yu = y0; yu < y1; ++yu) {
        const auto y = static_cast<std::ptrdiff_t>(yu);
        double* p = padded.data();
        for (std::ptrdiff_t i = 0; i < rx; ++i)
          p[i] = sample(image, i - rx, y, border);
        std::memcpy(p + rx, src + y * width, image.width() * sizeof(double));
        for (std::ptrdiff_t i = rx + width; i < width + nx - 1; ++i)
          p[i] = sample(image, i - rx, y, border);
        weighted_sum(views.data(), taps_x.data(), taps_x.size(),
                     dst + y * width, width);
      }
    });
  }

  // Vertical pass: tap k of output row y reads the whole row the border
  // rule maps y + k - ry to (a row of zeros for kZero), so border rows run
  // the same vectorized weighted_sum as interior rows.
  GridD out(image.width(), image.height());
  {
    const double* src = tmp.raw().data();
    double* dst = out.raw().data();
    const std::vector<double> zeros(
        border == BorderMode::kZero ? image.width() : 0, 0.0);
    parallel_for_rows(image.height(), [&](std::size_t y0, std::size_t y1) {
      std::vector<const double*> rows(taps_y.size());
      for (std::size_t yu = y0; yu < y1; ++yu) {
        const auto y = static_cast<std::ptrdiff_t>(yu);
        for (std::size_t k = 0; k < rows.size(); ++k) {
          const std::ptrdiff_t sy = border_index(
              y + static_cast<std::ptrdiff_t>(k) - ry, height, border);
          rows[k] = sy < 0 ? zeros.data() : src + sy * width;
        }
        weighted_sum(rows.data(), taps_y.data(), taps_y.size(),
                     dst + y * width, width);
      }
    });
  }
  return out;
}

GridD correlate_separable_reference(const GridD& image,
                                    const std::vector<double>& taps_x,
                                    const std::vector<double>& taps_y,
                                    BorderMode border) {
  QVG_EXPECTS(!taps_x.empty() && !taps_y.empty());
  const auto rx = static_cast<std::ptrdiff_t>(taps_x.size()) / 2;
  const auto ry = static_cast<std::ptrdiff_t>(taps_y.size()) / 2;
  const auto width = static_cast<std::ptrdiff_t>(image.width());
  const auto height = static_cast<std::ptrdiff_t>(image.height());

  GridD tmp(image.width(), image.height());
  parallel_for_rows(image.height(), [&](std::size_t y0, std::size_t y1) {
    for (std::size_t y = y0; y < y1; ++y) {
      const auto sy = static_cast<std::ptrdiff_t>(y);
      for (std::size_t x = 0; x < image.width(); ++x) {
        const auto sx = static_cast<std::ptrdiff_t>(x);
        double acc = 0.0;
        if (sx - rx >= 0 &&
            sx - rx + static_cast<std::ptrdiff_t>(taps_x.size()) <= width) {
          for (std::size_t k = 0; k < taps_x.size(); ++k)
            acc += taps_x[k] *
                   image(static_cast<std::size_t>(
                             sx + static_cast<std::ptrdiff_t>(k) - rx),
                         y);
        } else {
          for (std::size_t k = 0; k < taps_x.size(); ++k)
            acc += taps_x[k] *
                   sample(image, sx + static_cast<std::ptrdiff_t>(k) - rx, sy,
                          border);
        }
        tmp(x, y) = acc;
      }
    }
  });

  GridD out(image.width(), image.height());
  parallel_for_rows(image.height(), [&](std::size_t y0, std::size_t y1) {
    for (std::size_t y = y0; y < y1; ++y) {
      const auto sy = static_cast<std::ptrdiff_t>(y);
      const bool y_interior =
          sy - ry >= 0 &&
          sy - ry + static_cast<std::ptrdiff_t>(taps_y.size()) <= height;
      for (std::size_t x = 0; x < image.width(); ++x) {
        double acc = 0.0;
        if (y_interior) {
          for (std::size_t k = 0; k < taps_y.size(); ++k)
            acc += taps_y[k] *
                   tmp(x, static_cast<std::size_t>(
                              sy + static_cast<std::ptrdiff_t>(k) - ry));
        } else {
          for (std::size_t k = 0; k < taps_y.size(); ++k)
            acc += taps_y[k] *
                   sample(tmp, static_cast<std::ptrdiff_t>(x),
                          sy + static_cast<std::ptrdiff_t>(k) - ry, border);
        }
        out(x, y) = acc;
      }
    }
  });
  return out;
}

}  // namespace qvg
