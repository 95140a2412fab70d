#include "device/sensor.hpp"

#include "common/assert.hpp"

#include <cmath>

namespace qvg {

ChargeSensor::ChargeSensor(SensorConfig config) : config_(std::move(config)) {
  QVG_EXPECTS(!config_.beta.empty());
  QVG_EXPECTS(!config_.gamma.empty());
  QVG_EXPECTS(config_.peak_spacing > 0.0);
  QVG_EXPECTS(config_.peak_width > 0.0);
  QVG_EXPECTS(config_.peak_current > 0.0);
}

double ChargeSensor::detuning(const std::vector<double>& gate_voltages,
                              const std::vector<int>& occupation) const {
  QVG_EXPECTS(gate_voltages.size() == config_.beta.size());
  QVG_EXPECTS(occupation.size() == config_.gamma.size());
  double u = config_.u0;
  for (std::size_t j = 0; j < gate_voltages.size(); ++j)
    u += config_.beta[j] * gate_voltages[j];
  for (std::size_t i = 0; i < occupation.size(); ++i)
    u -= config_.gamma[i] * static_cast<double>(occupation[i]);
  return u;
}

double ChargeSensor::current_at_detuning(double u) const {
  // Periodic Lorentzian peak train: sum the two nearest peaks (the tails of
  // farther peaks are negligible at realistic spacing/width ratios).
  const double spacing = config_.peak_spacing;
  const double base = std::floor(u / spacing);
  double current = 0.0;
  for (int k = 0; k <= 1; ++k) {
    const double center = (base + k) * spacing;
    const double t = (u - center) / config_.peak_width;
    current += config_.peak_current / (1.0 + t * t);
  }
  return current + config_.background_slope * u;
}

double ChargeSensor::current(const std::vector<double>& gate_voltages,
                             const std::vector<int>& occupation) const {
  return current_at_detuning(detuning(gate_voltages, occupation));
}

}  // namespace qvg
