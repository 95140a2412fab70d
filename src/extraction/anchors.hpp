// Preprocessing for the initial anchor points (paper §4.4).
//
// Steps, all expressed on the pixel lattice of the scan axes:
//  1. Probe ten equally spaced points along the lower-left -> upper-right
//     diagonal and find the brightest one.
//  2. The starting point is the brightest diagonal point or the (10% width,
//     10% height) point, whichever lies farther from the lower-left corner.
//  3. Sweep the paper's Mask_x along the x axis at the starting row; sweep
//     Mask_y along the y axis at the starting column. Each response array is
//     weighted by a 1-D Gaussian prior, and the argmax gives one anchor:
//     Mask_x yields anchor B on the steep (0,0)->(1,0) line, Mask_y yields
//     anchor A on the shallow (0,0)->(0,1) line.
//
// The paper does not specify the Gaussian's parameters; we centre it on the
// sweep start with sigma = 0.50 * range (documented substitution): the sweep
// starts inside the empty (0,0) region, so the prior prefers the *first*
// charge transition encountered and suppresses second-electron lines.
#pragma once

#include "common/geometry.hpp"
#include "common/status.hpp"
#include "grid/axis.hpp"
#include "probe/acquisition_context.hpp"
#include "probe/current_source.hpp"
#include "probe/driver/async_source.hpp"

#include <cstddef>
#include <vector>

namespace qvg {

struct AnchorOptions {
  int num_diagonal_points = 10;
  /// Fallback starting point as a fraction of width/height.
  double start_fraction = 0.10;
  /// Gaussian prior sigma as a fraction of the sweep length.
  double gaussian_sigma_fraction = 0.50;
  /// After the mask argmax, snap each anchor (within +/- this many pixels
  /// along its sweep axis) to the maximum of the Algorithm-2 feature
  /// gradient. The masks peak *on* the transition edge, whereas the sweeps
  /// report the bright-side gradient pixel; snapping puts the fit's fixed
  /// endpoints on the same convention (a one-pixel endpoint bias is a
  /// several-percent slope bias on small scans). 0 disables.
  int snap_radius = 2;
};

struct AnchorResult {
  /// Anchor A: on the shallow line, at the starting column (upper-left).
  Pixel anchor_a;
  /// Anchor B: on the steep line, at the starting row (lower-right).
  Pixel anchor_b;
  /// Starting point chosen by the diagonal probe.
  Pixel start;
  /// Diagnostics: raw (pre-Gaussian) mask responses along each sweep.
  std::vector<double> response_x;
  std::vector<double> response_y;
};

/// Locate the two initial anchor points. Fails typed (kAnchorNotFound, stage
/// "anchors") when the window is too small for the masks or no valid
/// triangle (A left of and above B) can be formed. The context is checked
/// between the probe batches (diagonal, each mask sweep, each snap scan); a
/// cancelled or expired job returns the interruption Status instead.
[[nodiscard]] Result<AnchorResult> find_anchor_points(
    CurrentSource& source, const VoltageAxis& x_axis, const VoltageAxis& y_axis,
    const AnchorOptions& options = {},
    const AcquisitionContext& context = {});

/// The same search over an explicit lane; the CurrentSource overload runs
/// it on the job's ProbeLane. The batches go through one BatchPipeline, so
/// at depth >= 2 the two mask sweeps, and then the two snap scans, are in
/// flight together. Uninterrupted results are bit-identical at any depth,
/// and an interrupted run stops at the same check with the same probes
/// issued.
[[nodiscard]] Result<AnchorResult> find_anchor_points(
    AsyncCurrentSource& driver, const VoltageAxis& x_axis,
    const VoltageAxis& y_axis, const AnchorOptions& options = {},
    const AcquisitionContext& context = {});

}  // namespace qvg
