#include "device/dot_array.hpp"

#include "moments.hpp"

#include <gtest/gtest.h>

#include <memory>

namespace qvg {
namespace {

using testsupport::mean;
using testsupport::stddev;

BuiltDevice test_device(double jitter = 0.0, std::uint64_t seed = 1) {
  DotArrayParams params;
  params.n_dots = 2;
  params.jitter = jitter;
  Rng rng(seed);
  return build_dot_array(params, jitter > 0 ? &rng : nullptr);
}

TEST(DotArrayBuilderTest, LeverArmsDiagonalDominant) {
  const BuiltDevice device = test_device();
  const Matrix& alpha = device.model.lever_arms();
  for (std::size_t i = 0; i < 2; ++i)
    for (std::size_t j = 0; j < 2; ++j)
      if (i != j) EXPECT_LT(alpha(i, j), alpha(i, i));
}

TEST(DotArrayBuilderTest, CrossRatioSetsSlopes) {
  DotArrayParams params;
  params.n_dots = 2;
  params.cross_ratio = 0.2;
  const BuiltDevice device = build_dot_array(params);
  const auto truth = device.model.pair_truth(0, 1, 0, 1, device.base_voltages);
  EXPECT_NEAR(truth.slope_steep, -5.0, 1e-9);
  EXPECT_NEAR(truth.slope_shallow, -0.2, 1e-9);
}

TEST(DotArrayBuilderTest, TriplePointInsideWindow) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const BuiltDevice device = test_device(0.08, seed);
    const auto truth = device.model.pair_truth(0, 1, 0, 1, device.base_voltages);
    EXPECT_GT(truth.triple_point.x, device.params.window_lo) << "seed " << seed;
    EXPECT_LT(truth.triple_point.x, device.params.window_hi) << "seed " << seed;
    EXPECT_GT(truth.triple_point.y, device.params.window_lo) << "seed " << seed;
    EXPECT_LT(truth.triple_point.y, device.params.window_hi) << "seed " << seed;
  }
}

TEST(DotArrayBuilderTest, JitterIsDeterministicPerSeed) {
  const BuiltDevice a = test_device(0.1, 5);
  const BuiltDevice b = test_device(0.1, 5);
  const BuiltDevice c = test_device(0.1, 6);
  EXPECT_EQ(a.model.lever_arms(), b.model.lever_arms());
  EXPECT_NE(a.model.lever_arms(), c.model.lever_arms());
}

TEST(DotArrayBuilderTest, NDotArrayShapes) {
  DotArrayParams params;
  params.n_dots = 5;
  const BuiltDevice device = build_dot_array(params);
  EXPECT_EQ(device.model.num_dots(), 5u);
  EXPECT_EQ(device.model.num_gates(), 5u);
  EXPECT_EQ(device.sensor.beta.size(), 5u);
  EXPECT_EQ(device.sensor.gamma.size(), 5u);
  // Sensor sensitivity falls with distance from the dot-0 end.
  for (std::size_t i = 0; i + 1 < 5; ++i)
    EXPECT_GT(device.sensor.gamma[i], device.sensor.gamma[i + 1]);
}

TEST(SimulatorTest, ProbeChargesClockAndCounter) {
  const BuiltDevice device = test_device();
  DeviceSimulator sim = make_pair_simulator(device, 0, 42, 0.050);
  EXPECT_EQ(sim.probe_count(), 0);
  sim.get_current(0.01, 0.01);
  sim.get_current(0.02, 0.02);
  EXPECT_EQ(sim.probe_count(), 2);
  EXPECT_DOUBLE_EQ(sim.clock().elapsed_seconds(), 0.100);
}

TEST(SimulatorTest, IdealCurrentIsNoiseFreeAndDeterministic) {
  const BuiltDevice device = test_device();
  DeviceSimulator sim = make_pair_simulator(device);
  EXPECT_DOUBLE_EQ(sim.ideal_current(0.02, 0.03), sim.ideal_current(0.02, 0.03));
}

TEST(SimulatorTest, NoiselessProbeMatchesIdeal) {
  const BuiltDevice device = test_device();
  DeviceSimulator sim = make_pair_simulator(device);
  const double ideal = sim.ideal_current(0.02, 0.03);
  EXPECT_DOUBLE_EQ(sim.get_current(0.02, 0.03), ideal);
}

TEST(SimulatorTest, WhiteNoiseHasRequestedScale) {
  const BuiltDevice device = test_device();
  DeviceSimulator sim = make_pair_simulator(device, 0, 99);
  sim.add_noise(std::make_unique<WhiteNoise>(0.05));
  const double ideal = sim.ideal_current(0.02, 0.03);
  std::vector<double> residuals;
  for (int i = 0; i < 5000; ++i)
    residuals.push_back(sim.get_current(0.02, 0.03) - ideal);
  EXPECT_NEAR(mean(residuals), 0.0, 0.005);
  EXPECT_NEAR(stddev(residuals), 0.05, 0.005);
}

TEST(SimulatorTest, ResetReplaysNoiseExactly) {
  const BuiltDevice device = test_device();
  DeviceSimulator sim = make_pair_simulator(device, 0, 7);
  sim.add_noise(std::make_unique<WhiteNoise>(0.05));
  std::vector<double> first;
  for (int i = 0; i < 50; ++i) first.push_back(sim.get_current(0.02, 0.02));
  sim.reset();
  EXPECT_EQ(sim.probe_count(), 0);
  EXPECT_DOUBLE_EQ(sim.clock().elapsed_seconds(), 0.0);
  for (int i = 0; i < 50; ++i)
    EXPECT_DOUBLE_EQ(sim.get_current(0.02, 0.02), first[static_cast<std::size_t>(i)]);
}

TEST(SimulatorTest, OccupationStepsAcrossSteepLine) {
  const BuiltDevice device = test_device();
  DeviceSimulator sim = make_pair_simulator(device);
  const auto truth = sim.truth();
  const double y = truth.triple_point.y - 0.008;
  const Line2 steep(truth.slope_steep,
                    truth.triple_point.y -
                        truth.slope_steep * truth.triple_point.x);
  const double x_line = steep.x_at(y);
  EXPECT_EQ(sim.occupation_at(x_line - 0.002, y)[0], 0);
  EXPECT_EQ(sim.occupation_at(x_line + 0.002, y)[0], 1);
}

TEST(SimulatorTest, CurrentDropsAcrossTransition) {
  const BuiltDevice device = test_device();
  DeviceSimulator sim = make_pair_simulator(device);
  const auto truth = sim.truth();
  const double y = truth.triple_point.y - 0.008;
  const Line2 steep(truth.slope_steep,
                    truth.triple_point.y -
                        truth.slope_steep * truth.triple_point.x);
  const double x_line = steep.x_at(y);
  const double before = sim.ideal_current(x_line - 0.002, y);
  const double after = sim.ideal_current(x_line + 0.002, y);
  EXPECT_GT(before - after, 0.05);
}

TEST(SimulatorTest, GenerateCsdCarriesTruthAndCostsProbes) {
  const BuiltDevice device = test_device();
  DeviceSimulator sim = make_pair_simulator(device, 0, 42, 0.050);
  const VoltageAxis axis = scan_axis(device, 20);
  const Csd csd = sim.generate_csd(axis, axis, "test");
  EXPECT_EQ(csd.width(), 20u);
  EXPECT_EQ(csd.name(), "test");
  ASSERT_TRUE(csd.truth().has_value());
  EXPECT_EQ(sim.probe_count(), 400);
  EXPECT_NEAR(sim.clock().elapsed_seconds(), 400 * 0.050, 1e-9);
}

TEST(SimulatorTest, BrightestRegionIsLowerLeft) {
  // The (0,0) region must be the brightest area of the diagram — the
  // property the anchor preprocessing's diagonal probe relies on.
  const BuiltDevice device = test_device();
  DeviceSimulator sim = make_pair_simulator(device);
  const VoltageAxis axis = scan_axis(device, 10);
  const double corner_low = sim.ideal_current(axis.voltage(0), axis.voltage(0));
  const double corner_high = sim.ideal_current(axis.voltage(9), axis.voltage(9));
  EXPECT_GT(corner_low, corner_high);
}

TEST(SimulatorTest, BatchedProbesMatchScalarWithFullNoiseStack) {
  // get_currents must be bit-identical to the scalar loop even with every
  // temporal noise family attached (noise draws in probe order), and must
  // leave the simulator in the same state (later probes still agree).
  const BuiltDevice device = test_device();
  auto make_noisy = [&] {
    DeviceSimulator sim = make_pair_simulator(device, 0, /*noise_seed=*/99);
    sim.add_noise(std::make_unique<WhiteNoise>(0.02));
    sim.add_noise(std::make_unique<PinkNoise>(0.01, 0.2, 30.0));
    sim.add_noise(std::make_unique<TelegraphNoise>(0.05, 0.5));
    return sim;
  };
  DeviceSimulator scalar_sim = make_noisy();
  DeviceSimulator batched_sim = make_noisy();

  const VoltageAxis axis = scan_axis(device, 16);
  std::vector<Point2> points;
  for (std::size_t y = 0; y < axis.count(); ++y)
    for (std::size_t x = 0; x < axis.count(); x += 2)
      points.push_back({axis.voltage(static_cast<double>(x)),
                        axis.voltage(static_cast<double>(y))});

  std::vector<double> scalar_out;
  scalar_out.reserve(points.size());
  for (const auto& p : points)
    scalar_out.push_back(scalar_sim.get_current(p.x, p.y));
  std::vector<double> batched_out(points.size());
  batched_sim.get_currents(points, batched_out);

  for (std::size_t i = 0; i < points.size(); ++i)
    EXPECT_EQ(batched_out[i], scalar_out[i]) << "point " << i;
  EXPECT_EQ(batched_sim.probe_count(), scalar_sim.probe_count());
  EXPECT_EQ(batched_sim.clock().elapsed_seconds(),
            scalar_sim.clock().elapsed_seconds());
  // RNG and noise state advanced identically: the next probe agrees too.
  EXPECT_EQ(batched_sim.get_current(0.001, 0.002),
            scalar_sim.get_current(0.001, 0.002));
}

TEST(SimulatorTest, ScanPairValidation) {
  const BuiltDevice device = test_device();
  DeviceSimulator sim = make_pair_simulator(device);
  EXPECT_THROW(sim.set_scan_pair(ScanPair{0, 0, 0, 1}), ContractViolation);
  EXPECT_THROW(sim.set_scan_pair(ScanPair{0, 5, 0, 1}), ContractViolation);
  // One base voltage per gate.
  EXPECT_THROW(DeviceSimulator(device.model, device.sensor, {0.0}, ScanPair{}),
               ContractViolation);
}

}  // namespace
}  // namespace qvg
