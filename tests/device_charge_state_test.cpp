#include "device/charge_state.hpp"
#include "device/dot_array.hpp"

#include <gtest/gtest.h>

namespace qvg {
namespace {

CapacitanceModel simple_model(std::size_t n) {
  Matrix alpha(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j)
      alpha(i, j) = i == j ? 0.1 : (i + 1 == j || j + 1 == i ? 0.025 : 0.005);
  }
  std::vector<double> charging(n, 2.4e-3);
  Matrix mutual(n, n, 0.0);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    mutual(i, i + 1) = 0.1e-3;
    mutual(i + 1, i) = 0.1e-3;
  }
  std::vector<double> offsets(n, 2.0e-3);
  return CapacitanceModel(alpha, charging, mutual, offsets);
}

TEST(GroundStateTest, EmptyAtLowVoltage) {
  const auto model = simple_model(2);
  const auto n = ground_state(model, {0.0, 0.0});
  EXPECT_EQ(n, (std::vector<int>{0, 0}));
}

TEST(GroundStateTest, LoadsElectronPastThreshold) {
  const auto model = simple_model(2);
  // Dot 0 loads when alpha00*V0 > Ec/2 + offset = 3.2e-3 -> V0 > 32 mV.
  EXPECT_EQ(ground_state(model, {0.030, 0.0})[0], 0);
  EXPECT_EQ(ground_state(model, {0.035, 0.0})[0], 1);
}

TEST(GroundStateTest, MonotoneInOwnGateVoltage) {
  const auto model = simple_model(2);
  int previous = 0;
  for (double v = 0.0; v <= 0.25; v += 0.005) {
    const int n0 = ground_state(model, {v, 0.01})[0];
    EXPECT_GE(n0, previous);
    previous = n0;
  }
  EXPECT_GE(previous, 2);  // several electrons by 250 mV
}

TEST(GroundStateTest, RespectsMaxElectrons) {
  const auto model = simple_model(2);
  ChargeSolverOptions opt;
  opt.max_electrons_per_dot = 1;
  const auto n = ground_state(model, {1.0, 1.0}, opt);
  EXPECT_LE(n[0], 1);
  EXPECT_LE(n[1], 1);
}

TEST(GroundStateTest, ExhaustiveAndGreedyAgree) {
  const auto model = simple_model(3);
  for (double v0 = 0.0; v0 <= 0.08; v0 += 0.02) {
    for (double v1 = 0.0; v1 <= 0.08; v1 += 0.02) {
      const std::vector<double> voltages{v0, v1, 0.03};
      const auto drives = model.dot_drives(voltages);
      const auto exhaustive = ground_state_exhaustive(model, drives, 3);
      const auto greedy = ground_state_greedy(model, drives, 3);
      EXPECT_NEAR(model.energy(exhaustive, drives),
                  model.energy(greedy, drives), 1e-15)
          << "at V = (" << v0 << ", " << v1 << ")";
    }
  }
}

TEST(GroundStateTest, EightDotsAboveTheExhaustiveLimitStayInRange) {
  // 8 dots > kExhaustiveDotLimit: the dominance pre-pass, then the search
  // over the active dots (capped past the limit).
  const auto model = simple_model(8);
  const ChargeSolverOptions opt;
  const std::vector<double> voltages(8, 0.04);
  const auto n = ground_state(model, voltages, opt);
  EXPECT_EQ(n.size(), 8u);
  for (int ni : n) {
    EXPECT_GE(ni, 0);
    EXPECT_LE(ni, opt.max_electrons_per_dot);
  }
}

TEST(GroundStateTest, GroundStateMinimizesEnergyOverNeighbours) {
  // Property: no single-dot occupation change lowers the energy.
  const auto model = simple_model(3);
  const std::vector<double> voltages{0.045, 0.03, 0.05};
  const auto drives = model.dot_drives(voltages);
  const auto n = ground_state_exhaustive(model, drives, 4);
  const double e0 = model.energy(n, drives);
  for (std::size_t d = 0; d < 3; ++d) {
    for (int delta : {-1, +1}) {
      auto trial = n;
      trial[d] += delta;
      if (trial[d] < 0 || trial[d] > 4) continue;
      EXPECT_LE(e0, model.energy(trial, drives) + 1e-18);
    }
  }
}

TEST(GroundStateTest, MutualCouplingDelaysSecondDot) {
  // With dot 0 occupied, dot 1's transition needs extra drive Em.
  const auto model = simple_model(2);
  // Find dot 1's threshold with dot 0 empty vs occupied (via high V0).
  auto n1_at = [&](double v0, double v1) {
    return ground_state(model, {v0, v1})[1];
  };
  double threshold_empty = 0.0;
  double threshold_occupied = 0.0;
  for (double v = 0.0; v < 0.1; v += 0.0005) {
    if (threshold_empty == 0.0 && n1_at(0.0, v) == 1) threshold_empty = v;
    if (threshold_occupied == 0.0 && n1_at(0.040, v) == 1)
      threshold_occupied = v;
  }
  ASSERT_GT(threshold_empty, 0.0);
  ASSERT_GT(threshold_occupied, 0.0);
  // Occupied neighbour raises the threshold, but cross lever arm from the
  // high V0 lowers it; net effect here: cross-capacitance dominates.
  EXPECT_NE(threshold_empty, threshold_occupied);
}

TEST(GroundStateTest, TransitionMatchesAnalyticLine) {
  // The simulated charge boundary must match CapacitanceModel::pair_truth.
  const auto model = simple_model(2);
  const auto truth = model.pair_truth(0, 1, 0, 1, {0.0, 0.0});
  // Walk along x at fixed y below the triple point and find the 0->1 flip.
  const double y = truth.triple_point.y - 0.01;
  const Line2 steep(truth.slope_steep,
                    truth.triple_point.y - truth.slope_steep * truth.triple_point.x);
  const double x_expected = steep.x_at(y);
  double x_flip = -1.0;
  for (double x = 0.0; x < 0.1; x += 0.00005) {
    if (ground_state(model, {x, y})[0] == 1) {
      x_flip = x;
      break;
    }
  }
  ASSERT_GT(x_flip, 0.0);
  EXPECT_NEAR(x_flip, x_expected, 2e-4);
}

}  // namespace
}  // namespace qvg
