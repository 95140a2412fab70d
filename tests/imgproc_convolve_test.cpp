#include "imgproc/convolve.hpp"

#include "common/random.hpp"
#include "common/thread_pool.hpp"
#include "imgproc/kernel.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace qvg {
namespace {

/// taps[x] * taps[y]: the 2-D kernel a separable tap vector stands for.
Kernel2D outer_product(const std::vector<double>& taps) {
  Kernel2D k(taps.size(), taps.size());
  for (std::size_t y = 0; y < taps.size(); ++y)
    for (std::size_t x = 0; x < taps.size(); ++x) k(x, y) = taps[x] * taps[y];
  return k;
}

GridD ramp_image() {
  GridD image(5, 4);
  for (std::size_t y = 0; y < 4; ++y)
    for (std::size_t x = 0; x < 5; ++x)
      image(x, y) = static_cast<double>(x + 10 * y);
  return image;
}

TEST(CorrelateTest, IdentityKernel) {
  const GridD image = ramp_image();
  Kernel2D id(1, 1);
  id(0, 0) = 1.0;
  EXPECT_EQ(correlate_reference(image, id), image);
}

TEST(CorrelateTest, ShiftKernelMovesImage) {
  const GridD image = ramp_image();
  // 3x1 kernel with weight on the right tap: output(x) = image(x+1).
  Kernel2D shift(3, 1, 0.0);
  shift(2, 0) = 1.0;
  const GridD out = correlate_reference(image, shift, BorderMode::kZero);
  EXPECT_DOUBLE_EQ(out(1, 2), image(2, 2));
  EXPECT_DOUBLE_EQ(out(4, 0), 0.0);  // shifted-in zero border
}

TEST(CorrelateTest, BoxKernelAveragesConstantRegion) {
  GridD image(6, 6, 3.0);
  Kernel2D box(3, 3, 1.0 / 9.0);
  const GridD out = correlate_reference(image, box, BorderMode::kReplicate);
  for (double v : out.raw()) EXPECT_NEAR(v, 3.0, 1e-12);
}

TEST(CorrelateTest, ZeroBorderDampensEdges) {
  GridD image(4, 4, 1.0);
  Kernel2D box(3, 3, 1.0);
  const GridD out = correlate_reference(image, box, BorderMode::kZero);
  EXPECT_DOUBLE_EQ(out(1, 1), 9.0);  // interior: all taps inside
  EXPECT_DOUBLE_EQ(out(0, 0), 4.0);  // corner: only 2x2 inside
}

TEST(CorrelateTest, ReflectBorderPreservesConstant) {
  GridD image(4, 4, 2.0);
  Kernel2D box(5, 5, 1.0 / 25.0);
  const GridD out = correlate_reference(image, box, BorderMode::kReflect);
  for (double v : out.raw()) EXPECT_NEAR(v, 2.0, 1e-12);
}

TEST(SeparableTest, MatchesFull2DGaussian) {
  GridD image(9, 9, 0.0);
  image(4, 4) = 1.0;
  image(2, 6) = -0.5;
  const auto taps = gaussian_taps(1.0, 2);
  const GridD sep = correlate_separable(image, taps, taps, BorderMode::kZero);
  const GridD full =
      correlate_reference(image, outer_product(taps), BorderMode::kZero);
  for (std::size_t i = 0; i < sep.raw().size(); ++i)
    EXPECT_NEAR(sep.raw()[i], full.raw()[i], 1e-12);
}

TEST(ParallelEquivalenceTest, CorrelateBitIdenticalSerialVsParallel) {
  Rng rng(314);
  GridD image(97, 64);  // odd width: exercises uneven row chunks
  for (auto& v : image.raw()) v = rng.normal();
  const Kernel2D mask = paper_mask_x();
  const auto taps = gaussian_taps(1.4);

  set_parallelism_enabled(false);
  const GridD corr_serial =
      correlate_reference(image, mask, BorderMode::kReflect);
  const GridD sep_serial = correlate_separable(image, taps, taps);
  set_parallelism_enabled(true);
  const GridD corr_parallel =
      correlate_reference(image, mask, BorderMode::kReflect);
  const GridD sep_parallel = correlate_separable(image, taps, taps);

  EXPECT_EQ(corr_serial, corr_parallel);
  EXPECT_EQ(sep_serial, sep_parallel);
}

TEST(SeparableTest, AnisotropicTaps) {
  GridD image(7, 7, 0.0);
  image(3, 3) = 1.0;
  const std::vector<double> tx{0.25, 0.5, 0.25};
  const std::vector<double> ty{1.0};
  const GridD out = correlate_separable(image, tx, ty, BorderMode::kZero);
  EXPECT_DOUBLE_EQ(out(3, 3), 0.5);
  EXPECT_DOUBLE_EQ(out(2, 3), 0.25);
  EXPECT_DOUBLE_EQ(out(3, 2), 0.0);  // no vertical spread
}

}  // namespace
}  // namespace qvg
