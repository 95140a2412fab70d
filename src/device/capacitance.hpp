// Constant-interaction capacitance model of a gate-defined quantum dot
// array (Hanson et al., Rev. Mod. Phys. 79, 1217 (2007) — the paper's
// ref [6], which it invokes to justify the transition-line slope priors).
//
// Energies are in eV, voltages in V. The electrostatic energy of an
// occupation vector n at gate voltages V is
//
//   E(n; V) = sum_i Ec_i/2 * n_i^2 + sum_{i<k} Em_ik * n_i * n_k
//             - sum_i n_i * mu_i(V)
//   mu_i(V) = sum_j alpha_ij * V_j - offset_i
//
// where alpha_ij is the lever arm of gate j on dot i (diagonal-dominant:
// each plunger couples strongest to its own dot; off-diagonal entries are
// the cross-capacitance the virtual gates must compensate).
#pragma once

#include "common/geometry.hpp"
#include "grid/csd.hpp"
#include "linalg/matrix.hpp"

#include <cstddef>
#include <vector>

namespace qvg {

class CapacitanceModel {
 public:
  /// alpha: n_dots x n_gates lever-arm matrix (eV/V, entries > 0, rows
  /// diagonal-dominant for plunger gates). charging: per-dot charging energy
  /// Ec_i (eV, > 0). mutual: n_dots x n_dots symmetric matrix of
  /// electrostatic coupling Em_ik (eV, >= 0, zero diagonal). offsets: per-dot
  /// potential offsets (eV) fixing where the first transition sits.
  CapacitanceModel(Matrix alpha, std::vector<double> charging, Matrix mutual,
                   std::vector<double> offsets);

  [[nodiscard]] std::size_t num_dots() const noexcept { return charging_.size(); }
  [[nodiscard]] std::size_t num_gates() const noexcept { return alpha_.cols(); }

  [[nodiscard]] const Matrix& lever_arms() const noexcept { return alpha_; }
  [[nodiscard]] const std::vector<double>& charging_energies() const noexcept {
    return charging_;
  }
  [[nodiscard]] const Matrix& mutual_coupling() const noexcept { return mutual_; }
  [[nodiscard]] const std::vector<double>& offsets() const noexcept {
    return offsets_;
  }

  /// The sub-model of the given dots (ascending, distinct, non-empty): their
  /// lever-arm rows, charging energies, mutual couplings and offsets, in that
  /// order. Its drives equal the full model's drives of those dots.
  [[nodiscard]] CapacitanceModel restricted_to(
      const std::vector<std::size_t>& dots) const;

  /// Electrochemical drive mu_i(V) for every dot: -offset_i, then
  /// alpha_ij * V_j added in ascending j. DeviceSimulator's scan plan
  /// reproduces this summation order bit for bit.
  [[nodiscard]] std::vector<double> dot_drives(
      const std::vector<double>& gate_voltages) const;

  /// Total electrostatic energy of occupation `n` at the given drives.
  [[nodiscard]] double energy(const std::vector<int>& occupation,
                              const std::vector<double>& drives) const;

  /// Slope dV_gy/dV_gx of the 0->1 addition line of `dot` in the plane of
  /// gates (gx, gy). Negative for positive lever arms.
  [[nodiscard]] double addition_line_slope(std::size_t dot, std::size_t gx,
                                           std::size_t gy) const;

  /// Ground truth for the double-dot window scanned by gates (gx, gy) acting
  /// on dots (dot_x, dot_y), with all other gates held at `base_voltages`:
  /// steep line = dot_x 0->1 addition, shallow line = dot_y 0->1 addition,
  /// triple point = their intersection (in the scanned-voltage plane).
  [[nodiscard]] TransitionTruth pair_truth(
      std::size_t dot_x, std::size_t dot_y, std::size_t gx, std::size_t gy,
      const std::vector<double>& base_voltages) const;

  /// The exact compensation matrix that would orthogonalize all dots:
  /// the virtual gate matrix G with G(i,i)=1 and G(i,j) = alpha_ij/alpha_ii
  /// for a square plunger-per-dot device (reference for tests).
  [[nodiscard]] Matrix ideal_virtualization() const;

 private:
  Matrix alpha_;
  std::vector<double> charging_;
  Matrix mutual_;
  std::vector<double> offsets_;
};

}  // namespace qvg
