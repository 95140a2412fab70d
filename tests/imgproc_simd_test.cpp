// PR 7 kernel-equivalence suite: every SIMD / blocked / branch-light fast
// path is pinned against its scalar reference, bit-identical except for the
// one documented ULP-tolerance case (Sobel magnitude, sqrt form vs hypot).
//
// Geometry matrix deliberately hits the shapes the lane/tile restructuring
// could get wrong: prime sizes (seam between interior fast path and border
// handling never aligns with lanes), non-square, images smaller than the
// kernel (interior span empty), widths straddling the lane count, and
// 1xN / Nx1 degenerate grids.
#include "common/random.hpp"
#include "common/simd.hpp"
#include "common/thread_pool.hpp"
#include "imgproc/canny.hpp"
#include "imgproc/convolve.hpp"
#include "imgproc/filters.hpp"
#include "imgproc/hough.hpp"
#include "imgproc/kernel.hpp"
#include "imgproc/sobel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <numbers>
#include <utility>
#include <vector>

namespace qvg {
namespace {

GridD random_image(std::size_t w, std::size_t h, std::uint64_t seed) {
  Rng rng(seed);
  GridD image(w, h);
  for (auto& v : image.raw()) v = rng.normal();
  return image;
}

/// Deterministic CSD-like test scene: two line families plus noise.
GridD synthetic_scene(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  GridD image(n, n, 0.0);
  for (std::size_t y = 0; y < n; ++y)
    for (std::size_t x = 0; x < n; ++x) {
      const double fx = static_cast<double>(x);
      const double fy = static_cast<double>(y);
      double v = 0.05 * rng.normal();
      const double d1 = std::fmod(fx + 0.7 * fy, 23.0);
      const double d2 = std::fmod(0.4 * fx + fy, 31.0);
      if (d1 < 1.5) v += 1.0;
      if (d2 < 1.2) v += 0.8;
      image(x, y) = v;
    }
  return image;
}

/// Full-sampler oracle: every pixel (interior included) accumulates through
/// the border sampler in reference tap order with the zero-weight skip. This
/// is the ground truth the interior fast path and the border path must both
/// reproduce bit-exactly — the "one boundary helper" pin.
double oracle_sample(const GridD& image, std::ptrdiff_t x, std::ptrdiff_t y,
                     BorderMode border) {
  const auto w = static_cast<std::ptrdiff_t>(image.width());
  const auto h = static_cast<std::ptrdiff_t>(image.height());
  if (x >= 0 && y >= 0 && x < w && y < h)
    return image(static_cast<std::size_t>(x), static_cast<std::size_t>(y));
  switch (border) {
    case BorderMode::kZero:
      return 0.0;
    case BorderMode::kReplicate:
      return image.clamped(x, y);
    case BorderMode::kReflect: {
      auto reflect = [](std::ptrdiff_t v, std::ptrdiff_t n) {
        while (v < 0 || v >= n) {
          if (v < 0) v = -v;
          if (v >= n) v = 2 * (n - 1) - v;
        }
        return v;
      };
      return image(static_cast<std::size_t>(reflect(x, w)),
                   static_cast<std::size_t>(reflect(y, h)));
    }
  }
  return 0.0;
}

GridD correlate_oracle(const GridD& image, const Kernel2D& kernel,
                       BorderMode border) {
  const auto kw = static_cast<std::ptrdiff_t>(kernel.width());
  const auto kh = static_cast<std::ptrdiff_t>(kernel.height());
  const std::ptrdiff_t ax = kw / 2;
  const std::ptrdiff_t ay = kh / 2;
  GridD out(image.width(), image.height());
  for (std::size_t y = 0; y < image.height(); ++y)
    for (std::size_t x = 0; x < image.width(); ++x) {
      double acc = 0.0;
      for (std::ptrdiff_t ky = 0; ky < kh; ++ky)
        for (std::ptrdiff_t kx = 0; kx < kw; ++kx) {
          const double w = kernel(static_cast<std::size_t>(kx),
                                  static_cast<std::size_t>(ky));
          if (w == 0.0) continue;
          acc += w * oracle_sample(image, static_cast<std::ptrdiff_t>(x) + kx - ax,
                                   static_cast<std::ptrdiff_t>(y) + ky - ay,
                                   border);
        }
      out(x, y) = acc;
    }
  return out;
}

std::uint64_t ulp_distance(double a, double b) {
  // Both operands are non-negative magnitudes, where the IEEE bit pattern is
  // monotone in the value.
  std::uint64_t ua = 0;
  std::uint64_t ub = 0;
  std::memcpy(&ua, &a, sizeof(a));
  std::memcpy(&ub, &b, sizeof(b));
  return ua > ub ? ua - ub : ub - ua;
}

TEST(InteriorSpanTest, CentersOddKernel) {
  const auto [lo, hi] = kernel_interior_span(10, 1, 3);
  EXPECT_EQ(lo, 1);
  EXPECT_EQ(hi, 9);
}

TEST(InteriorSpanTest, EvenKernelAnchorsAtFloorCenter) {
  const auto [lo, hi] = kernel_interior_span(10, 1, 2);
  EXPECT_EQ(lo, 1);
  EXPECT_EQ(hi, 10);  // anchor 1 of 2: window is [p-1, p], fits up to p = 9
}

TEST(InteriorSpanTest, KernelLargerThanImageIsEmpty) {
  const auto [lo, hi] = kernel_interior_span(3, 2, 5);
  EXPECT_EQ(lo, hi);
  const auto [lo1, hi1] = kernel_interior_span(1, 3, 7);
  EXPECT_EQ(lo1, hi1);
  EXPECT_LE(lo1, 1);
}

struct Shape {
  std::size_t w;
  std::size_t h;
};

// Prime and lane-straddling sizes; 1xN / Nx1; smaller than any 3x3+ kernel.
const Shape kShapes[] = {{97, 61}, {61, 53}, {64, 64}, {65, 47}, {66, 5},
                         {67, 3},  {7, 7},   {2, 2},   {1, 9},   {9, 1}};
const BorderMode kBorders[] = {BorderMode::kReplicate, BorderMode::kReflect,
                               BorderMode::kZero};

bool reflect_safe(const Shape& s) { return s.w > 1 && s.h > 1; }

TEST(CorrelateEquivalenceTest, FastMatchesReferenceBitExact) {
  const Kernel2D kernels[] = {paper_mask_x(), gaussian_kernel(1.0, 2),
                              sobel_y_kernel()};
  std::uint64_t seed = 11;
  for (const Shape& s : kShapes) {
    const GridD image = random_image(s.w, s.h, seed++);
    for (const Kernel2D& k : kernels) {
      for (BorderMode b : kBorders) {
        if (b == BorderMode::kReflect && !reflect_safe(s)) continue;
        EXPECT_EQ(correlate(image, k, b), correlate_reference(image, k, b))
            << s.w << "x" << s.h;
      }
    }
  }
}

TEST(CorrelateEquivalenceTest, EvenKernelAnchoring) {
  Kernel2D even(2, 2);
  even(0, 0) = 0.5;
  even(1, 0) = -0.25;
  even(0, 1) = 0.125;
  even(1, 1) = 1.0;
  for (const Shape& s : kShapes) {
    const GridD image = random_image(s.w, s.h, 101 + s.w);
    EXPECT_EQ(correlate(image, even, BorderMode::kReplicate),
              correlate_reference(image, even, BorderMode::kReplicate));
  }
}

TEST(ConvolveEquivalenceTest, FlippedPathMatchesReference) {
  const Kernel2D k = paper_mask_y();
  for (const Shape& s : {Shape{97, 61}, Shape{65, 47}, Shape{2, 2}}) {
    const GridD image = random_image(s.w, s.h, 31 + s.w);
    for (BorderMode b : kBorders)
      EXPECT_EQ(convolve(image, k, b), convolve_reference(image, k, b));
  }
}

TEST(CorrelateOracleTest, InteriorAndBorderShareOneBoundaryRule) {
  // The satellite pin: on prime-sized grids (seam between SIMD interior,
  // scalar tail and sampler border lands at an arbitrary offset), the fast
  // path must equal the everything-through-the-sampler oracle bit-exactly.
  const Kernel2D kernels[] = {gaussian_kernel(1.0, 2), paper_mask_x()};
  for (const Shape& s : {Shape{97, 61}, Shape{61, 53}, Shape{67, 3}}) {
    const GridD image = random_image(s.w, s.h, 7 + s.w);
    for (const Kernel2D& k : kernels)
      for (BorderMode b : kBorders) {
        EXPECT_EQ(correlate(image, k, b), correlate_oracle(image, k, b))
            << s.w << "x" << s.h;
      }
  }
}

TEST(SeparableEquivalenceTest, FastMatchesReferenceBitExact) {
  const std::vector<double> tap_sets[] = {
      gaussian_taps(1.4), gaussian_taps(0.6), {0.25, 0.5, 0.25}, {1.0}};
  std::uint64_t seed = 211;
  for (const Shape& s : kShapes) {
    const GridD image = random_image(s.w, s.h, seed++);
    for (const auto& tx : tap_sets) {
      for (const auto& ty : tap_sets) {
        for (BorderMode b : kBorders) {
          if (b == BorderMode::kReflect && !reflect_safe(s)) continue;
          EXPECT_EQ(correlate_separable(image, tx, ty, b),
                    correlate_separable_reference(image, tx, ty, b))
              << s.w << "x" << s.h << " taps " << tx.size() << "/" << ty.size();
        }
      }
    }
  }
}

TEST(SeparableEquivalenceTest, SerialVsParallelStillBitIdentical) {
  const GridD image = random_image(97, 61, 999);
  const auto taps = gaussian_taps(1.4);
  set_parallelism_enabled(false);
  const GridD serial = correlate_separable(image, taps, taps);
  set_parallelism_enabled(true);
  const GridD parallel = correlate_separable(image, taps, taps);
  EXPECT_EQ(serial, parallel);
}

TEST(SobelEquivalenceTest, GradientsBitExactMagnitudeWithinUlps) {
  for (const Shape& s : {Shape{97, 61}, Shape{64, 64}, Shape{65, 47}}) {
    const GridD image = random_image(s.w, s.h, 400 + s.w);
    const GradientField fast = sobel_gradients(image);
    const GradientField ref = sobel_gradients_reference(image);
    EXPECT_EQ(fast.gx, ref.gx);
    EXPECT_EQ(fast.gy, ref.gy);
    // The documented ULP-tolerance case: sqrt(gx^2 + gy^2) rounds three
    // operations where hypot rounds once. Bound is small and pinned here.
    std::uint64_t worst = 0;
    for (std::size_t i = 0; i < fast.magnitude.raw().size(); ++i)
      worst = std::max(
          worst, ulp_distance(fast.magnitude.raw()[i], ref.magnitude.raw()[i]));
    EXPECT_LE(worst, 2u) << s.w << "x" << s.h;
  }
}

TEST(CannySectorTest, ExhaustiveIntegerGradientSweep) {
  // Every integer gradient pair across several magnitude scales must agree
  // with the atan2 oracle. Sector boundaries sit at irrational tangents
  // (sqrt(2) +- 1), which no integer ratio hits, so agreement is exact.
  const double scales[] = {1.0, 0.5, 1024.0, 9.5367431640625e-7, 7.3};
  for (double scale : scales) {
    for (int iy = -64; iy <= 64; ++iy) {
      for (int ix = -64; ix <= 64; ++ix) {
        const double gx = scale * ix;
        const double gy = scale * iy;
        ASSERT_EQ(canny_sector(gx, gy), canny_sector_reference(gx, gy))
            << "gx=" << gx << " gy=" << gy;
      }
    }
  }
}

TEST(CannySectorTest, FineAngleSweep) {
  // Dense angular sweep, offset so no sample lands exactly on a 22.5 + 45k
  // degree boundary: within ~1 ulp of a boundary the ladder and the oracle
  // legitimately round through different paths (the documented measure-zero
  // set — the integer sweep above shows real Sobel outputs never hit it).
  for (int i = 0; i < 7200; ++i) {
    const double deg = 0.05 * i - 180.0 + 0.0137;
    const double rad = deg * std::numbers::pi / 180.0;
    for (double r : {1.0, 1e-6, 1e6}) {
      const double gx = r * std::cos(rad);
      const double gy = r * std::sin(rad);
      ASSERT_EQ(canny_sector(gx, gy), canny_sector_reference(gx, gy))
          << "deg=" << deg << " r=" << r;
    }
  }
}

TEST(CannySectorTest, ZeroAndAxisGradients) {
  const double vals[] = {0.0, -0.0, 1.0, -1.0, 5.5, -5.5};
  for (double gx : vals)
    for (double gy : vals)
      EXPECT_EQ(canny_sector(gx, gy), canny_sector_reference(gx, gy))
          << "gx=" << gx << " gy=" << gy;
}

TEST(CannyEquivalenceTest, PipelineMatchesReferenceOnSyntheticScenes) {
  // The ladder sectors are exactly the atan2 sectors and the magnitude ULP
  // wobble sits far from any threshold on these scenes, so the full edge
  // maps pin bit-identical.
  for (std::size_t n : {64u, 97u}) {
    const GridD scene = synthetic_scene(n, 5000 + n);
    EXPECT_EQ(canny(scene), canny_reference(scene)) << n;
  }
}

/// The detector's back half in its original form, as the oracle for the
/// class-map NMS: a `thinned` magnitude image (0 where suppressed), clamped
/// neighbour reads everywhere, then a flood from every pixel >= high through
/// pixels >= low.
GridU8 canny_thinned_oracle(const GridD& image, double low, double high) {
  constexpr int kNeighbors[4][2][2] = {{{1, 0}, {-1, 0}},
                                       {{1, 1}, {-1, -1}},
                                       {{0, 1}, {0, -1}},
                                       {{-1, 1}, {1, -1}}};
  const GradientField grad = sobel_gradients(gaussian_blur(image, 1.4));
  const std::size_t w = image.width();
  const std::size_t h = image.height();
  GridD thinned(w, h, 0.0);
  for (std::size_t y = 0; y < h; ++y)
    for (std::size_t x = 0; x < w; ++x) {
      const double m = grad.magnitude(x, y);
      if (m < low) continue;
      const auto& n = kNeighbors[canny_sector(grad.gx(x, y), grad.gy(x, y))];
      const auto px = static_cast<std::ptrdiff_t>(x);
      const auto py = static_cast<std::ptrdiff_t>(y);
      if (m >= grad.magnitude.clamped(px + n[0][0], py + n[0][1]) &&
          m >= grad.magnitude.clamped(px + n[1][0], py + n[1][1]))
        thinned(x, y) = m;
    }
  GridU8 edges(w, h, 0);
  std::vector<std::pair<std::ptrdiff_t, std::ptrdiff_t>> stack;
  for (std::size_t y = 0; y < h; ++y)
    for (std::size_t x = 0; x < w; ++x)
      if (thinned(x, y) >= high) {
        edges(x, y) = 1;
        stack.emplace_back(x, y);
      }
  while (!stack.empty()) {
    const auto [cx, cy] = stack.back();
    stack.pop_back();
    for (std::ptrdiff_t dy = -1; dy <= 1; ++dy)
      for (std::ptrdiff_t dx = -1; dx <= 1; ++dx) {
        if (!edges.in_bounds(cx + dx, cy + dy)) continue;
        const auto ux = static_cast<std::size_t>(cx + dx);
        const auto uy = static_cast<std::size_t>(cy + dy);
        if (edges(ux, uy) == 0 && thinned(ux, uy) >= low) {
          edges(ux, uy) = 1;
          stack.emplace_back(cx + dx, cy + dy);
        }
      }
  }
  return edges;
}

TEST(CannyEquivalenceTest, ClassMapMatchesTheThinnedImageFormulation) {
  // Absolute thresholds, including a zero low threshold (every suppressed
  // pixel then counts as weak) and a zero high threshold (every pixel is
  // strong), on scenes with lines and on pure noise.
  const std::pair<double, double> thresholds[] = {
      {0.25, 0.45}, {0.05, 0.3}, {0.0, 0.4}, {0.0, 0.0}, {0.6, 0.6}};
  std::uint64_t seed = 40;
  for (const Shape& s : {Shape{97, 61}, Shape{64, 64}, Shape{7, 7},
                         Shape{3, 5}}) {
    const GridD scene = synthetic_scene(std::max(s.w, s.h), seed);
    const GridD noise = random_image(s.w, s.h, seed++);
    for (const auto& [low, high] : thresholds) {
      CannyOptions opt;
      opt.low_threshold = low;
      opt.high_threshold = high;
      EXPECT_EQ(canny(scene, opt), canny_thinned_oracle(scene, low, high))
          << s.w << "x" << s.h << " " << low << "/" << high;
      EXPECT_EQ(canny(noise, opt), canny_thinned_oracle(noise, low, high))
          << s.w << "x" << s.h << " " << low << "/" << high;
    }
  }
}

GridU8 random_edges(std::size_t w, std::size_t h, double density,
                    std::uint64_t seed) {
  Rng rng(seed);
  GridU8 edges(w, h, 0);
  for (auto& v : edges.raw()) v = rng.uniform() < density ? 1 : 0;
  return edges;
}

TEST(HoughEquivalenceTest, BlockedMatchesFlatVotes) {
  HoughOptions flat;
  flat.accumulate_mode = HoughAccumulateMode::kFlat;
  HoughOptions blocked;
  blocked.accumulate_mode = HoughAccumulateMode::kBlocked;

  struct Case {
    std::size_t w;
    std::size_t h;
    double density;
  };
  for (const Case& c : {Case{97, 61, 0.03}, Case{64, 64, 0.5}, Case{130, 7, 0.2},
                        Case{1, 64, 0.5}, Case{64, 1, 0.5}, Case{3, 3, 1.0}}) {
    const GridU8 edges = random_edges(c.w, c.h, c.density, 77 + c.w);
    const HoughAccumulator a = hough_accumulate(edges, flat);
    const HoughAccumulator b = hough_accumulate(edges, blocked);
    EXPECT_EQ(a.votes, b.votes) << c.w << "x" << c.h;
  }
}

TEST(HoughEquivalenceTest, EmptyMapAndNonDefaultResolutions) {
  HoughOptions flat;
  flat.accumulate_mode = HoughAccumulateMode::kFlat;
  flat.rho_resolution = 0.5;
  flat.theta_resolution_deg = 2.0;
  HoughOptions blocked = flat;
  blocked.accumulate_mode = HoughAccumulateMode::kBlocked;

  const GridU8 empty(80, 80, 0);
  EXPECT_EQ(hough_accumulate(empty, flat).votes,
            hough_accumulate(empty, blocked).votes);

  GridU8 one(80, 80, 0);
  one(79, 79) = 1;  // last pixel of the last (partial) tile
  EXPECT_EQ(hough_accumulate(one, flat).votes,
            hough_accumulate(one, blocked).votes);
}

TEST(HoughEquivalenceTest, LinesAgreeOnCannyOutput) {
  const GridD scene = synthetic_scene(96, 42);
  const GridU8 edges = canny(scene);
  HoughOptions flat;
  flat.accumulate_mode = HoughAccumulateMode::kFlat;
  HoughOptions blocked;
  blocked.accumulate_mode = HoughAccumulateMode::kBlocked;
  const auto lf = hough_lines(edges, flat);
  const auto lb = hough_lines(edges, blocked);
  ASSERT_EQ(lf.size(), lb.size());
  for (std::size_t i = 0; i < lf.size(); ++i) {
    EXPECT_EQ(lf[i].rho, lb[i].rho);
    EXPECT_EQ(lf[i].theta, lb[i].theta);
    EXPECT_EQ(lf[i].votes, lb[i].votes);
  }
}

}  // namespace
}  // namespace qvg
