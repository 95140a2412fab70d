// Slope extraction (paper §4.3.3): fit a 2-piece-wise linear shape through
// the filtered transition points. The outer endpoints are fixed at the two
// initial anchor points; the only free parameters are the coordinates of
// the intersection point of the two lines. The paper fits with SciPy's
// curve_fit; we minimize the same least-squares objective (with an optional
// Huber loss) by Nelder-Mead alone.
#pragma once

#include "common/geometry.hpp"
#include "common/status.hpp"

#include <vector>

namespace qvg {

enum class FitResidual {
  /// Vertical distance to the piecewise function y(x) — closest to SciPy
  /// curve_fit on y = f(x). Over-weights errors on the near-vertical steep
  /// branch.
  kVertical,
  /// Euclidean distance to the nearest of the two segments — symmetric in
  /// both branches (default).
  kOrthogonal,
};

struct PiecewiseFitOptions {
  FitResidual residual = FitResidual::kOrthogonal;
  int max_iterations = 400;
  /// Initial intersection guess as a fraction of the way from the right-angle
  /// vertex toward the triangle interior.
  double initial_inset = 0.15;
  /// Huber robust-loss scale in pixels (0 = plain least squares). Real
  /// honeycombs have a short interdot segment near the triple point that the
  /// 2-piecewise model cannot represent; the robust loss keeps those corner
  /// points (and surviving sweep outliers) from dragging the intersection.
  double huber_delta_px = 1.5;
};

struct PiecewiseFit {
  /// Fitted intersection of the two transition lines (pixel coordinates).
  Point2 intersection;
  /// Slope of the shallow branch (anchor A -> intersection).
  double slope_shallow = 0.0;
  /// Slope of the steep branch (intersection -> anchor B).
  double slope_steep = 0.0;
  /// Root-mean-square residual at the optimum (pixels).
  double rms_residual = 0.0;
  int iterations = 0;
};

/// Fit the 2-piecewise-linear shape. anchor_a/anchor_b are the *initial*
/// anchors (fixed endpoints). Fails with kFitFailed (empty stage; the
/// caller names it) when there are fewer than 3 points or the optimum
/// degenerates (intersection outside the anchor box or slopes with the
/// wrong sign ordering).
[[nodiscard]] Result<PiecewiseFit> fit_piecewise_linear(
    const std::vector<Pixel>& points, Pixel anchor_a, Pixel anchor_b,
    const PiecewiseFitOptions& options = {});

/// Distance from a point to the 2-piecewise path A->P->B (exposed for
/// tests and for the orthogonal residual).
[[nodiscard]] double distance_to_path(Point2 p, Point2 a, Point2 vertex,
                                      Point2 b);

}  // namespace qvg
