// Linear least-squares line fitting.
#pragma once

#include <vector>

namespace qvg {

/// Result of a straight-line fit y = slope * x + intercept.
struct LineFit {
  double slope = 0.0;
  double intercept = 0.0;
  /// Root-mean-square vertical residual.
  double rms_residual = 0.0;
};

/// Ordinary least-squares line fit through (x_i, y_i), solved by Householder
/// QR. Requires >= 2 points with distinct x. Throws NumericalError on a
/// degenerate configuration.
[[nodiscard]] LineFit fit_line(const std::vector<double>& x,
                               const std::vector<double>& y);

}  // namespace qvg
