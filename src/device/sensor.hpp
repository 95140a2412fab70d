// Charge-sensor model.
//
// The sensors (C1/C2 in the paper's Figure 1) are single quantum dots whose
// conductance sits on the flank of a Coulomb-blockade peak; a change in the
// electrostatic environment (electron loading in a nearby dot, or direct
// plunger-gate crosstalk) shifts the peak and changes the measured current.
// We model the sensor detuning as
//
//   u = u0 + sum_j beta_j V_j - sum_i gamma_i n_i
//
// and the current as a periodic train of Lorentzian peaks plus a small
// linear background. beta gives the smooth current gradient visible across
// real CSDs; gamma produces the sharp current step at every charge-state
// transition line.
#pragma once

#include <cstddef>
#include <vector>

namespace qvg {

struct SensorConfig {
  /// Direct gate->sensor crosstalk lever arms (eV/V), one per gate.
  std::vector<double> beta;
  /// Charge-transition shifts (eV), one per dot; positive moves the sensor
  /// down-flank so loading an electron *reduces* the current.
  std::vector<double> gamma;
  /// Detuning offset (eV) choosing the operating point on the peak flank.
  double u0 = 0.0;
  /// Coulomb-peak spacing (eV) and half width at half maximum (eV).
  double peak_spacing = 2.0e-3;
  double peak_width = 0.35e-3;
  /// Peak current (arbitrary units, think nA).
  double peak_current = 1.0;
  /// Linear background conductance (A per eV of detuning).
  double background_slope = 0.0;
};

class ChargeSensor {
 public:
  explicit ChargeSensor(SensorConfig config);

  [[nodiscard]] const SensorConfig& config() const noexcept { return config_; }

  /// Sensor detuning for gate voltages V and dot occupation n.
  [[nodiscard]] double detuning(const std::vector<double>& gate_voltages,
                                const std::vector<int>& occupation) const;

  /// Noise-free sensor current at a detuning.
  [[nodiscard]] double current_at_detuning(double u) const;

  /// Convenience: current for gate voltages and occupation.
  [[nodiscard]] double current(const std::vector<double>& gate_voltages,
                               const std::vector<int>& occupation) const;

 private:
  SensorConfig config_;
};

}  // namespace qvg
