#include "extraction/feature_gradient.hpp"
#include "probe/playback.hpp"
#include "probe/probe_cache.hpp"
#include "test_support.hpp"

#include <gtest/gtest.h>

namespace qvg {
namespace {

using testsupport::SyntheticCsdSpec;
using testsupport::make_synthetic_csd;

TEST(FeatureGradientTest, PositiveOnSteepLine) {
  SyntheticCsdSpec spec;
  const Csd csd = make_synthetic_csd(spec);
  CsdPlayback playback(csd);
  // Steep line at y=20: x = 55 + (20-45)/(-4) = 61.25.
  const double on_line = feature_gradient(playback, 0.061, 0.020, 0.001, 0.001);
  EXPECT_GT(on_line, 0.3);
}

TEST(FeatureGradientTest, PositiveOnShallowLine) {
  SyntheticCsdSpec spec;
  const Csd csd = make_synthetic_csd(spec);
  CsdPlayback playback(csd);
  // Shallow line at x=20: y = 45 - 0.25*(20-55) = 53.75.
  const double on_line = feature_gradient(playback, 0.020, 0.053, 0.001, 0.001);
  EXPECT_GT(on_line, 0.3);
}

TEST(FeatureGradientTest, NearZeroInFlatRegions) {
  SyntheticCsdSpec spec;
  const Csd csd = make_synthetic_csd(spec);
  CsdPlayback playback(csd);
  const double bright_interior =
      feature_gradient(playback, 0.010, 0.010, 0.001, 0.001);
  const double dark_interior =
      feature_gradient(playback, 0.080, 0.080, 0.001, 0.001);
  EXPECT_LT(std::abs(bright_interior), 0.05);
  EXPECT_LT(std::abs(dark_interior), 0.05);
}

TEST(FeatureGradientTest, LinePointBeatsNeighbourhood) {
  SyntheticCsdSpec spec;
  const Csd csd = make_synthetic_csd(spec);
  CsdPlayback playback(csd);
  const double on_line = feature_gradient(playback, 0.061, 0.020, 0.001, 0.001);
  for (double offset : {-0.004, -0.003, 0.003, 0.004}) {
    const double off_line =
        feature_gradient(playback, 0.061 + offset, 0.020, 0.001, 0.001);
    EXPECT_GT(on_line, off_line) << "offset " << offset;
  }
}

TEST(FeatureGradientTest, CostsThreeProbesUncachedOneWhenShared) {
  SyntheticCsdSpec spec;
  const Csd csd = make_synthetic_csd(spec);
  CsdPlayback playback(csd);
  const double direct = feature_gradient(playback, 0.030, 0.030, 0.001, 0.001);
  EXPECT_EQ(playback.probe_count(), 3);

  // Adjacent evaluations through a cache share neighbours, and the cache
  // changes no value.
  CsdPlayback playback2(csd);
  ProbeCache cache(playback2, 0.001);
  EXPECT_EQ(feature_gradient(cache, 0.030, 0.030, 0.001, 0.001), direct);
  const double shared = feature_gradient(cache, 0.031, 0.030, 0.001, 0.001);
  CsdPlayback playback3(csd);
  EXPECT_EQ(shared, feature_gradient(playback3, 0.031, 0.030, 0.001, 0.001));
  EXPECT_EQ(cache.probe_count(), 6);
  // Second evaluation reuses (0.031, 0.030): only 2 new unique probes.
  EXPECT_EQ(cache.unique_probe_count(), 5);
}

TEST(FeatureGradientTest, MatchesAlgorithm2Formula) {
  SyntheticCsdSpec spec;
  spec.noise_sigma = 0.02;
  const Csd csd = make_synthetic_csd(spec);
  CsdPlayback playback(csd);
  const double v1 = 0.040;
  const double v2 = 0.050;
  const double c = playback.get_current(v1, v2);
  const double c_right = playback.get_current(v1 + 0.001, v2);
  const double c_ur = playback.get_current(v1 + 0.001, v2 + 0.001);
  const double expected = (c - c_right) + (c - c_ur);
  EXPECT_DOUBLE_EQ(feature_gradient(playback, v1, v2, 0.001, 0.001), expected);
}

TEST(FeatureGradientTest, InvalidDeltaRejected) {
  SyntheticCsdSpec spec;
  const Csd csd = make_synthetic_csd(spec);
  CsdPlayback playback(csd);
  EXPECT_THROW((void)feature_gradient(playback, 0.0, 0.0, 0.0, 0.001),
               ContractViolation);
  EXPECT_THROW((void)feature_gradient(playback, 0.0, 0.0, 0.001, -0.001),
               ContractViolation);
}

}  // namespace
}  // namespace qvg
