#include "extraction/sweep.hpp"
#include "probe/playback.hpp"
#include "probe/probe_cache.hpp"
#include "test_support.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace qvg {
namespace {

using testsupport::SyntheticCsdSpec;
using testsupport::make_synthetic_csd;

// Anchors placed exactly on the lines of the default synthetic spec:
// steep line at y=12 -> x = 55 + (12-45)/(-4) = 63.25; shallow at x=12 ->
// y = 45 - 0.25*(12-55) = 55.75.
constexpr Pixel kAnchorA{12, 55};
constexpr Pixel kAnchorB{63, 12};

double steep_x_at(const SyntheticCsdSpec& spec, double y) {
  return spec.triple_x + (y - spec.triple_y) / spec.slope_steep;
}

double shallow_y_at(const SyntheticCsdSpec& spec, double x) {
  return spec.triple_y + spec.slope_shallow * (x - spec.triple_x);
}

TEST(SweepTest, RowSweepTracksSteepLine) {
  SyntheticCsdSpec spec;
  const Csd csd = make_synthetic_csd(spec);
  CsdPlayback playback(csd);
  const auto result =
      run_sweeps(playback, csd.x_axis(), csd.y_axis(), kAnchorA, kAnchorB);
  ASSERT_FALSE(result.row_points.empty());
  for (const auto& p : result.row_points) {
    if (p.pixel.y >= static_cast<int>(spec.triple_y) - 1) continue;
    EXPECT_NEAR(p.pixel.x, steep_x_at(spec, p.pixel.y), 2.0)
        << "row " << p.pixel.y;
  }
}

TEST(SweepTest, ColSweepTracksShallowLine) {
  SyntheticCsdSpec spec;
  const Csd csd = make_synthetic_csd(spec);
  CsdPlayback playback(csd);
  const auto result =
      run_sweeps(playback, csd.x_axis(), csd.y_axis(), kAnchorA, kAnchorB);
  ASSERT_FALSE(result.col_points.empty());
  for (const auto& p : result.col_points) {
    if (p.pixel.x >= static_cast<int>(spec.triple_x) - 1) continue;
    EXPECT_NEAR(p.pixel.y, shallow_y_at(spec, p.pixel.x), 2.0)
        << "col " << p.pixel.x;
  }
}

TEST(SweepTest, OnePointPerRowAndColumn) {
  SyntheticCsdSpec spec;
  const Csd csd = make_synthetic_csd(spec);
  CsdPlayback playback(csd);
  const auto result =
      run_sweeps(playback, csd.x_axis(), csd.y_axis(), kAnchorA, kAnchorB);
  // Rows from B.y+1 .. A.y-1, columns from A.x+1 .. B.x-1.
  EXPECT_EQ(result.row_points.size(),
            static_cast<std::size_t>(kAnchorA.y - kAnchorB.y - 1));
  EXPECT_EQ(result.col_points.size(),
            static_cast<std::size_t>(kAnchorB.x - kAnchorA.x - 1));
  for (std::size_t i = 1; i < result.row_points.size(); ++i)
    EXPECT_EQ(result.row_points[i].pixel.y,
              result.row_points[i - 1].pixel.y + 1);
}

TEST(SweepTest, GradientsOfFoundPointsArePositive) {
  SyntheticCsdSpec spec;
  const Csd csd = make_synthetic_csd(spec);
  CsdPlayback playback(csd);
  const auto result =
      run_sweeps(playback, csd.x_axis(), csd.y_axis(), kAnchorA, kAnchorB);
  int strongly_positive = 0;
  for (const auto& p : result.row_points)
    strongly_positive += p.gradient > 0.2 ? 1 : 0;
  // Most rows cross a genuine transition.
  EXPECT_GT(strongly_positive,
            static_cast<int>(result.row_points.size() * 2 / 3));
}

TEST(SweepTest, SurvivesModerateNoise) {
  SyntheticCsdSpec spec;
  spec.noise_sigma = 0.03;
  const Csd csd = make_synthetic_csd(spec);
  CsdPlayback playback(csd);
  const auto result =
      run_sweeps(playback, csd.x_axis(), csd.y_axis(), kAnchorA, kAnchorB);
  int close = 0;
  for (const auto& p : result.row_points) {
    if (p.pixel.y >= static_cast<int>(spec.triple_y) - 1) continue;
    if (std::abs(p.pixel.x - steep_x_at(spec, p.pixel.y)) <= 2.0) ++close;
  }
  EXPECT_GT(close, 25);  // of ~32 steep rows
}

TEST(SweepTest, AnchorStepClampPreventsCollapse) {
  // Plant a strong spurious dark blob just above the shallow line mid-way:
  // without the clamp, one bad pick walks the triangle off the line.
  SyntheticCsdSpec spec;
  Csd csd = make_synthetic_csd(spec);
  // Blob below the shallow line at columns 30-32.
  for (std::size_t x = 30; x <= 32; ++x)
    for (std::size_t y = 40; y <= 44; ++y) csd.grid()(x, y) = 0.0;
  CsdPlayback playback(csd);
  SweepOptions clamped;
  clamped.max_anchor_step = 1;
  const auto result = run_sweeps(playback, csd.x_axis(), csd.y_axis(),
                                 kAnchorA, kAnchorB, clamped);
  // Columns well past the blob must re-lock onto the true shallow line.
  int recovered = 0;
  for (const auto& p : result.col_points) {
    if (p.pixel.x < 38 || p.pixel.x >= static_cast<int>(spec.triple_x) - 2)
      continue;
    if (std::abs(p.pixel.y - shallow_y_at(spec, p.pixel.x)) <= 2.0) ++recovered;
  }
  EXPECT_GT(recovered, 10);
}

TEST(SweepTest, SegmentCapLimitsProbes) {
  SyntheticCsdSpec spec;
  const Csd csd = make_synthetic_csd(spec);

  CsdPlayback unlimited_playback(csd);
  ProbeCache unlimited_cache(unlimited_playback, 0.001);
  (void)run_sweeps(unlimited_cache, csd.x_axis(), csd.y_axis(), kAnchorA,
                   kAnchorB);

  CsdPlayback capped_playback(csd);
  ProbeCache capped_cache(capped_playback, 0.001);
  SweepOptions capped;
  capped.max_segment_pixels = 3;
  (void)run_sweeps(capped_cache, csd.x_axis(), csd.y_axis(), kAnchorA,
                   kAnchorB, capped);

  EXPECT_LE(capped_cache.unique_probe_count(),
            unlimited_cache.unique_probe_count());
}

TEST(SweepTest, InvalidAnchorsRejected) {
  SyntheticCsdSpec spec;
  const Csd csd = make_synthetic_csd(spec);
  CsdPlayback playback(csd);
  EXPECT_THROW(run_sweeps(playback, csd.x_axis(), csd.y_axis(), {50, 50},
                          {40, 60}),
               ContractViolation);
  EXPECT_THROW(run_sweeps(playback, csd.x_axis(), csd.y_axis(), {10, 200},
                          {50, 10}),
               ContractViolation);
}

TEST(SweepTest, ProbeBudgetScalesWithPerimeterNotArea) {
  SyntheticCsdSpec spec;
  const Csd csd = make_synthetic_csd(spec);
  CsdPlayback playback(csd);
  ProbeCache cache(playback, 0.001);
  (void)run_sweeps(cache, csd.x_axis(), csd.y_axis(), kAnchorA, kAnchorB);
  // The triangle has ~43x44 bounding box (1900 pixels); the sweeps must
  // probe only a band around the lines.
  EXPECT_LT(cache.unique_probe_count(), 800);
}

}  // namespace
}  // namespace qvg
