// The paper's Algorithm 3 sweeps: locate transition points inside the
// critical triangle with a row-major and a column-major sweep, dynamically
// shrinking the triangle after every found point.
//
// Geometry (convention in common/geometry.hpp): anchor A = (on the shallow
// line, upper-left), anchor B = (on the steep line, lower-right); the
// triangle has its right angle at (B.x, A.y).
//
//  * Row-major sweep (bottom -> top): for each row between B and A, probe
//    the pixels inside the triangle, keep the maximum-feature-gradient pixel
//    as a transition point, and move anchor B to it. Tracks the steep line
//    accurately; segments get long (noise-prone) in the shallow-line region.
//  * Column-major sweep (left -> right): the transpose, moving anchor A.
//    Tracks the shallow line accurately.
#pragma once

#include "common/geometry.hpp"
#include "common/status.hpp"
#include "grid/axis.hpp"
#include "probe/acquisition_context.hpp"
#include "probe/current_source.hpp"
#include "probe/driver/async_source.hpp"

#include <vector>

namespace qvg {

struct SweepOptions {
  /// Cap on pixels probed per row/column segment; 0 means unlimited. Long
  /// segments only occur when the triangle degenerates, so a cap bounds the
  /// probe budget without changing well-behaved runs.
  std::size_t max_segment_pixels = 0;
  /// Extra pixels probed on each side of the triangle's segment. The
  /// idealized critical region assumes exact anchors; with an anchor off by
  /// one pixel the transition line can hug (or briefly exit) the triangle
  /// boundary near that anchor, starving the sweep of the line's gradient
  /// pixels and letting noise walk the moving anchor away from the line.
  /// One pixel of slack makes the sweeps robust to that at a small probe
  /// cost.
  int triangle_slack_pixels = 1;
  /// Bound on how far the moving anchor may advance per row/column, derived
  /// from the paper's slope priors: the shallow line falls less than one
  /// pixel per column (|m| < 1) and the steep line moves less than one pixel
  /// per row (|m| > 1), so a found point jumping farther than this toward
  /// the triangle interior is noise; the anchor update is clamped (the point
  /// itself is still reported and left to the post-processing filter).
  /// Prevents one bad pick from collapsing the triangle away from the line
  /// ("a falsely located point deviates the triangular region", §4.3.2).
  /// 0 disables the clamp (paper-literal behaviour).
  int max_anchor_step = 1;
  /// Run the respective sweep (ablation knobs; the paper runs both).
  bool run_row_sweep = true;
  bool run_col_sweep = true;
};

struct SweepPoint {
  Pixel pixel;
  double gradient = 0.0;
};

struct SweepResult {
  /// ok() when both enabled sweeps ran to completion; the interruption
  /// Status (kCancelled / kDeadlineExceeded / kBudgetExhausted, stage
  /// "sweeps") when the acquisition context stopped them early. The points collected before the
  /// interruption are retained.
  Status status;
  std::vector<SweepPoint> row_points;  // from the row-major sweep
  std::vector<SweepPoint> col_points;  // from the column-major sweep

  [[nodiscard]] std::vector<Pixel> all_pixels() const;
};

/// Run both sweeps from the given anchor pixels. Probing happens through
/// `source` on the pixel lattice defined by the axes (wrap the source in a
/// ProbeCache to share gradient neighbours between adjacent pixels and to
/// count unique probes). The context is checked before every row/column
/// segment batch; a cancelled or expired job stops at the next segment
/// boundary with the points found so far.
[[nodiscard]] SweepResult run_sweeps(CurrentSource& source,
                                     const VoltageAxis& x_axis,
                                     const VoltageAxis& y_axis, Pixel anchor_a,
                                     Pixel anchor_b,
                                     const SweepOptions& options = {},
                                     const AcquisitionContext& context = {});

/// The same sweeps over an explicit lane; the CurrentSource overload runs
/// them on the job's ProbeLane. Each segment's argmax moves the anchor that
/// shapes the next segment, so segments are submitted one at a time at any
/// depth. Results are bit-identical across lanes.
[[nodiscard]] SweepResult run_sweeps(AsyncCurrentSource& driver,
                                     const VoltageAxis& x_axis,
                                     const VoltageAxis& y_axis, Pixel anchor_a,
                                     Pixel anchor_b,
                                     const SweepOptions& options = {},
                                     const AcquisitionContext& context = {});

}  // namespace qvg
