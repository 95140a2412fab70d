// Voltage axis: the mapping between integer pixel indices and physical gate
// voltages. A charge stability diagram has one axis per plunger gate.
#pragma once

#include "common/rounding.hpp"

#include <cstddef>

namespace qvg {

class VoltageAxis {
 public:
  VoltageAxis() = default;

  /// Axis spanning `count` pixels starting at `start` volts with `step` volts
  /// per pixel. step > 0, count >= 1.
  VoltageAxis(double start, double step, std::size_t count);

  /// Convenience: axis over [lo, hi] with `count` pixels (inclusive ends).
  static VoltageAxis over_range(double lo, double hi, std::size_t count);

  [[nodiscard]] double start() const noexcept { return start_; }
  [[nodiscard]] double step() const noexcept { return step_; }
  [[nodiscard]] std::size_t count() const noexcept { return count_; }
  [[nodiscard]] double end() const noexcept {
    return start_ + step_ * static_cast<double>(count_ - 1);
  }

  /// Voltage at pixel index i (i may exceed the axis for extrapolation).
  [[nodiscard]] double voltage(double index) const noexcept {
    return start_ + step_ * index;
  }

  /// Continuous pixel index of a voltage.
  [[nodiscard]] double index_of(double voltage) const noexcept {
    return (voltage - start_) / step_;
  }

  /// Nearest in-range pixel index of a voltage (clamped; ties round away
  /// from zero like std::round). Inline: playback calls it twice per probe.
  /// NaN and voltages past the last pixel map to the last index.
  [[nodiscard]] std::size_t nearest_index(double voltage) const noexcept {
    const double idx = index_of(voltage);
    const std::size_t last = count_ - 1;
    if (!(idx < static_cast<double>(last))) return last;
    if (!(idx > 0.0)) return 0;
    return static_cast<std::size_t>(round_half_away(idx));
  }

  [[nodiscard]] bool in_range(double voltage) const noexcept {
    return voltage >= start_ - 0.5 * step_ && voltage <= end() + 0.5 * step_;
  }

  friend bool operator==(const VoltageAxis&, const VoltageAxis&) = default;

 private:
  double start_ = 0.0;
  double step_ = 1.0;
  std::size_t count_ = 1;
};

}  // namespace qvg
