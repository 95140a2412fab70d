// Virtualization matrices (paper §2.3).
//
// For a dot pair scanned as (x = VP1, y = VP2) with measured transition-line
// slopes m_steep ((0,0)->(1,0)) and m_shallow ((0,0)->(0,1)), the
// compensation coefficients are
//
//   a12 = -1 / m_steep      (effect of VP2 on dot 1)
//   a21 = -m_shallow        (effect of VP1 on dot 2)
//
// and the virtual gates are [V'P1; V'P2] = [[1, a12], [a21, 1]] [VP1; VP2].
// This matrix equals D^-1 A of the underlying lever-arm matrix, i.e. it
// orthogonalizes the dot potentials exactly (common/geometry.hpp gives the
// axis convention relative to the paper's figures).
#pragma once

#include "common/status.hpp"
#include "grid/csd.hpp"
#include "linalg/matrix.hpp"

#include <vector>

namespace qvg {

struct VirtualGatePair {
  double alpha12 = 0.0;
  double alpha21 = 0.0;

  /// The 2x2 virtualization matrix [[1, a12], [a21, 1]].
  [[nodiscard]] Matrix matrix() const;

  friend bool operator==(const VirtualGatePair&, const VirtualGatePair&) =
      default;
};

/// Build the pair from measured slopes (both must be negative, with
/// m_steep < m_shallow). Fails otherwise with kDegenerateVirtualization
/// (empty stage; the caller names it).
[[nodiscard]] Result<VirtualGatePair> virtualization_from_slopes(
    double slope_steep, double slope_shallow);

/// Slope of a line after mapping voltage space through the virtualization
/// matrix (directions transform as d' = M d).
[[nodiscard]] double transform_slope(const Matrix& m, double slope);

/// Angle (degrees) between the two transition lines after virtualization;
/// 90 means perfect orthogonal control.
[[nodiscard]] double virtualized_angle_deg(const VirtualGatePair& pair,
                                           double slope_steep,
                                           double slope_shallow);

/// Resample a CSD into virtual-gate coordinates (the paper's Figure 3
/// right panel): output pixel (V'1, V'2) takes the bilinear sample of the
/// input at (V1, V2) = M^-1 (V'1, V'2), clamped at the window border.
[[nodiscard]] Csd warp_to_virtual(const Csd& csd, const VirtualGatePair& pair);

/// Compose an n x n virtualization matrix for a linear array from the n-1
/// nearest-neighbour pair extractions (paper §2.3: "n-1 sequentially
/// executed extraction processes"). Couplings beyond nearest neighbours are
/// not observable pairwise and are left at zero.
[[nodiscard]] Matrix compose_array_virtualization(
    const std::vector<VirtualGatePair>& pairs);

}  // namespace qvg
