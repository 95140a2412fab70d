#include "common/error.hpp"
#include "device/sensor.hpp"

#include <gtest/gtest.h>

namespace qvg {
namespace {

SensorConfig config_for_test() {
  SensorConfig config;
  config.beta = {-8.0e-3, -8.0e-3};
  config.gamma = {1.8e-3, 1.0e-3};
  config.u0 = -1.5e-3;
  config.peak_spacing = 16.0e-3;
  config.peak_width = 2.2e-3;
  config.peak_current = 1.0;
  return config;
}

TEST(ChargeSensorTest, PeakCurrentAtCenter) {
  const ChargeSensor sensor(config_for_test());
  // At a peak centre the nearest peak contributes its full height (the
  // neighbouring peak adds a small tail).
  EXPECT_NEAR(sensor.current_at_detuning(0.0), 1.0, 0.05);
  EXPECT_NEAR(sensor.current_at_detuning(16.0e-3), 1.0, 0.05);
}

TEST(ChargeSensorTest, CurrentFallsOffPeak) {
  const ChargeSensor sensor(config_for_test());
  const double on_peak = sensor.current_at_detuning(0.0);
  const double off_flank = sensor.current_at_detuning(-3.0e-3);
  const double far_tail = sensor.current_at_detuning(-8.0e-3);
  EXPECT_GT(on_peak, off_flank);
  EXPECT_GT(off_flank, far_tail);
}

TEST(ChargeSensorTest, PeriodicPeaks) {
  const ChargeSensor sensor(config_for_test());
  EXPECT_NEAR(sensor.current_at_detuning(-1.0e-3),
              sensor.current_at_detuning(-1.0e-3 + 16.0e-3), 1e-9);
}

TEST(ChargeSensorTest, DetuningCombinesGatesAndCharges) {
  const ChargeSensor sensor(config_for_test());
  const double base = sensor.detuning({0.0, 0.0}, {0, 0});
  EXPECT_DOUBLE_EQ(base, -1.5e-3);
  // Raising a gate lowers u (negative beta).
  EXPECT_LT(sensor.detuning({0.01, 0.0}, {0, 0}), base);
  // Loading an electron lowers u by gamma.
  EXPECT_DOUBLE_EQ(sensor.detuning({0.0, 0.0}, {1, 0}), base - 1.8e-3);
  EXPECT_DOUBLE_EQ(sensor.detuning({0.0, 0.0}, {0, 2}), base - 2.0e-3);
}

TEST(ChargeSensorTest, ElectronLoadingDropsCurrentOnRisingFlank) {
  const ChargeSensor sensor(config_for_test());
  const double before = sensor.current({0.01, 0.01}, {0, 0});
  const double after_dot0 = sensor.current({0.01, 0.01}, {1, 0});
  const double after_both = sensor.current({0.01, 0.01}, {1, 1});
  EXPECT_GT(before, after_dot0);
  EXPECT_GT(after_dot0, after_both);
}

TEST(ChargeSensorTest, BackgroundSlopeAdds) {
  auto config = config_for_test();
  config.background_slope = 10.0;
  const ChargeSensor sensor(config);
  const ChargeSensor plain(config_for_test());
  const double u = -2.0e-3;
  EXPECT_NEAR(sensor.current_at_detuning(u) - plain.current_at_detuning(u),
              10.0 * u, 1e-12);
}

TEST(ChargeSensorTest, ValidationRejectsBadConfig) {
  auto config = config_for_test();
  config.peak_width = 0.0;
  EXPECT_THROW(ChargeSensor{config}, ContractViolation);
  config = config_for_test();
  config.beta.clear();
  EXPECT_THROW(ChargeSensor{config}, ContractViolation);
  config = config_for_test();
  config.peak_spacing = -1.0;
  EXPECT_THROW(ChargeSensor{config}, ContractViolation);
}

TEST(ChargeSensorTest, MismatchedVectorsThrow) {
  const ChargeSensor sensor(config_for_test());
  EXPECT_THROW((void)sensor.detuning({0.0}, {0, 0}), ContractViolation);
  EXPECT_THROW((void)sensor.detuning({0.0, 0.0}, {0}), ContractViolation);
}

}  // namespace
}  // namespace qvg
