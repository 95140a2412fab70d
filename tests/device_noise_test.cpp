#include "common/error.hpp"
#include "device/noise.hpp"

#include "moments.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

namespace qvg {
namespace {

using testsupport::mean;
using testsupport::stddev;
using testsupport::variance;

TEST(WhiteNoiseTest, MomentsMatch) {
  WhiteNoise noise(0.5);
  Rng rng(1);
  std::vector<double> samples;
  for (int i = 0; i < 50000; ++i) samples.push_back(noise.next(0.05, rng));
  EXPECT_NEAR(mean(samples), 0.0, 0.01);
  EXPECT_NEAR(stddev(samples), 0.5, 0.01);
}

TEST(WhiteNoiseTest, ZeroSigmaIsSilent) {
  WhiteNoise noise(0.0);
  Rng rng(2);
  for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(noise.next(0.05, rng), 0.0);
}

TEST(WhiteNoiseTest, SamplesUncorrelated) {
  WhiteNoise noise(1.0);
  Rng rng(3);
  std::vector<double> samples;
  for (int i = 0; i < 20000; ++i) samples.push_back(noise.next(0.05, rng));
  double autocorr = 0.0;
  for (std::size_t i = 0; i + 1 < samples.size(); ++i)
    autocorr += samples[i] * samples[i + 1];
  autocorr /= static_cast<double>(samples.size() - 1);
  EXPECT_NEAR(autocorr, 0.0, 0.03);
}

TEST(OuNoiseTest, StationaryStdMatches) {
  OuNoise noise(0.4, 1.0);
  Rng rng(4);
  std::vector<double> samples;
  // Long steps decorrelate fully; the stationary std must be sigma.
  for (int i = 0; i < 30000; ++i) samples.push_back(noise.next(10.0, rng));
  EXPECT_NEAR(stddev(samples), 0.4, 0.02);
}

TEST(OuNoiseTest, CorrelatedAtShortTimes) {
  OuNoise noise(1.0, 10.0);
  Rng rng(5);
  std::vector<double> samples;
  for (int i = 0; i < 20000; ++i) samples.push_back(noise.next(0.05, rng));
  double autocorr = 0.0;
  double var_acc = 0.0;
  for (std::size_t i = 0; i + 1 < samples.size(); ++i) {
    autocorr += samples[i] * samples[i + 1];
    var_acc += samples[i] * samples[i];
  }
  // dt/tau = 0.005 -> neighbouring samples nearly identical.
  EXPECT_GT(autocorr / var_acc, 0.95);
}

TEST(OuNoiseTest, ResetReplaysDeterministically) {
  OuNoise noise(1.0, 1.0);
  Rng rng(6);
  std::vector<double> first;
  for (int i = 0; i < 20; ++i) first.push_back(noise.next(0.5, rng));
  noise.reset();
  rng.reseed(6);
  for (int i = 0; i < 20; ++i)
    EXPECT_DOUBLE_EQ(noise.next(0.5, rng), first[static_cast<std::size_t>(i)]);
}

TEST(TelegraphNoiseTest, TwoLevels) {
  TelegraphNoise noise(0.3, 5.0);
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = noise.next(0.05, rng);
    EXPECT_TRUE(std::abs(v - 0.15) < 1e-12 || std::abs(v + 0.15) < 1e-12);
  }
}

TEST(TelegraphNoiseTest, FlipRateMatches) {
  TelegraphNoise noise(1.0, 2.0);  // 2 Hz
  Rng rng(8);
  int flips = 0;
  double prev = noise.next(0.05, rng);
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double v = noise.next(0.05, rng);
    if (v != prev) ++flips;
    prev = v;
  }
  // Expected flip probability per 50 ms step: 1 - exp(-0.1) = 0.0952.
  EXPECT_NEAR(static_cast<double>(flips) / n, 0.0952, 0.01);
}

TEST(TelegraphNoiseTest, ZeroRateNeverFlips) {
  TelegraphNoise noise(1.0, 0.0);
  Rng rng(9);
  const double first = noise.next(0.05, rng);
  for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(noise.next(0.05, rng), first);
}

TEST(PinkNoiseTest, TotalSigmaMatches) {
  PinkNoise noise(0.3, 0.1, 10.0);
  Rng rng(10);
  std::vector<double> samples;
  for (int i = 0; i < 40000; ++i) samples.push_back(noise.next(100.0, rng));
  EXPECT_NEAR(stddev(samples), 0.3, 0.02);
}

TEST(PinkNoiseTest, LowFrequencyPowerDominates) {
  // Variance of long-window averages should stay high relative to white
  // noise (a 1/f signature).
  PinkNoise pink(1.0, 0.05, 50.0);
  WhiteNoise white(1.0);
  Rng rng_pink(11);
  Rng rng_white(11);
  auto window_var = [](auto& process, Rng& rng) {
    std::vector<double> means;
    for (int w = 0; w < 400; ++w) {
      double acc = 0.0;
      for (int i = 0; i < 50; ++i) acc += process.next(0.05, rng);
      means.push_back(acc / 50.0);
    }
    return variance(means);
  };
  EXPECT_GT(window_var(pink, rng_pink), 5.0 * window_var(white, rng_white));
}

TEST(CompositeNoiseTest, SumsComponents) {
  CompositeNoise composite;
  composite.add(std::make_unique<WhiteNoise>(0.0));
  composite.add(std::make_unique<TelegraphNoise>(0.4, 0.0));  // frozen level
  Rng rng(12);
  const double v = composite.next(0.05, rng);
  EXPECT_NEAR(std::abs(v), 0.2, 1e-12);
  EXPECT_EQ(composite.size(), 2u);
}

TEST(CompositeNoiseTest, EmptyIsSilent) {
  CompositeNoise composite;
  Rng rng(13);
  EXPECT_DOUBLE_EQ(composite.next(0.05, rng), 0.0);
}

TEST(CompositeNoiseTest, NullProcessRejected) {
  CompositeNoise composite;
  EXPECT_THROW(composite.add(nullptr), ContractViolation);
}

TEST(NoiseValidationTest, BadParametersThrow) {
  EXPECT_THROW(WhiteNoise{-0.1}, ContractViolation);
  EXPECT_THROW(OuNoise(1.0, 0.0), ContractViolation);
  EXPECT_THROW(TelegraphNoise(-1.0, 1.0), ContractViolation);
  EXPECT_THROW(PinkNoise(1.0, 0.0, 1.0), ContractViolation);
  EXPECT_THROW(PinkNoise(1.0, 2.0, 1.0), ContractViolation);
}

}  // namespace
}  // namespace qvg
