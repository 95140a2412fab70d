// Charge stability diagram: sensor current over a 2-D plunger-voltage window,
// plus optional ground-truth transition-line metadata when the CSD came from
// the device simulator (used by the automated success verdicts).
#pragma once

#include "common/geometry.hpp"
#include "grid/axis.hpp"
#include "grid/grid2d.hpp"

#include <optional>
#include <string>

namespace qvg {

/// Ground truth about the two transition lines bounding the (0,0) region.
/// Available for simulated devices; measured datasets would not carry it.
struct TransitionTruth {
  /// Slope of the steep (0,0)->(1,0) line, dVP2/dVP1 (negative, |m|>1).
  double slope_steep = 0.0;
  /// Slope of the shallow (0,0)->(0,1) line, dVP2/dVP1 (negative, |m|<1).
  double slope_shallow = 0.0;
  /// Intersection of the two lines (triple-point region), in volts.
  Point2 triple_point{};
  /// Reference compensation coefficients of the exact orthogonalizing matrix
  /// M = D^-1 A: in the x = VP1, y = VP2 convention (common/geometry.hpp),
  /// a12 = -1/slope_steep and a21 = -slope_shallow.
  [[nodiscard]] double alpha12() const { return -1.0 / slope_steep; }
  [[nodiscard]] double alpha21() const { return -slope_shallow; }

  friend bool operator==(const TransitionTruth&, const TransitionTruth&) =
      default;
};

/// A measured or simulated charge stability diagram.
/// Pixel (x, y) holds the sensor current at VP1 = x_axis.voltage(x),
/// VP2 = y_axis.voltage(y).
class Csd {
 public:
  Csd() = default;
  Csd(VoltageAxis x_axis, VoltageAxis y_axis);

  [[nodiscard]] const VoltageAxis& x_axis() const noexcept { return x_axis_; }
  [[nodiscard]] const VoltageAxis& y_axis() const noexcept { return y_axis_; }
  [[nodiscard]] std::size_t width() const noexcept { return grid_.width(); }
  [[nodiscard]] std::size_t height() const noexcept { return grid_.height(); }

  [[nodiscard]] GridD& grid() noexcept { return grid_; }
  [[nodiscard]] const GridD& grid() const noexcept { return grid_; }

  [[nodiscard]] double& current(std::size_t x, std::size_t y) {
    return grid_.at(x, y);
  }
  [[nodiscard]] double current(std::size_t x, std::size_t y) const {
    return grid_.at(x, y);
  }

  /// Voltage pair at a pixel.
  [[nodiscard]] Point2 voltage_at(std::size_t x, std::size_t y) const {
    return {x_axis_.voltage(static_cast<double>(x)),
            y_axis_.voltage(static_cast<double>(y))};
  }

  void set_truth(TransitionTruth truth) { truth_ = truth; }
  [[nodiscard]] const std::optional<TransitionTruth>& truth() const noexcept {
    return truth_;
  }

  void set_name(std::string name) { name_ = std::move(name); }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  /// Min/max current over the whole diagram.
  [[nodiscard]] std::pair<double, double> current_range() const;

  /// Full value equality: axes, pixels, truth, and name (wire round-trip
  /// tests pin bit-exact diagrams).
  friend bool operator==(const Csd&, const Csd&) = default;

 private:
  VoltageAxis x_axis_;
  VoltageAxis y_axis_;
  GridD grid_;
  std::optional<TransitionTruth> truth_;
  std::string name_;
};

}  // namespace qvg
