// Standard Hough line transform over a binary edge map, with peak extraction
// and non-maximum suppression in the accumulator. This is the line-finding
// stage of the paper's baseline method.
#pragma once

#include "common/geometry.hpp"
#include "grid/grid2d.hpp"

#include <optional>
#include <vector>

namespace qvg {

/// A line in normal (Hesse) form: rho = x cos(theta) + y sin(theta).
struct HoughLine {
  double rho = 0.0;    // signed distance from origin, in pixels
  double theta = 0.0;  // radians in [0, pi)
  int votes = 0;

  /// Slope dy/dx of the line; nullopt for (near-)vertical lines.
  [[nodiscard]] std::optional<double> slope() const;
};

/// How hough_accumulate walks (edge point, theta) space.
enum class HoughAccumulateMode {
  /// Cache-blocked production path: edge points bucketed into spatial tiles,
  /// theta swept SIMD-wide per point within each theta-parallel chunk, so
  /// the active accumulator slab (chunk columns x one tile's rho window)
  /// stays in L1/L2 instead of streaming the whole rho range per point.
  /// Integer votes are order-independent: counts are identical to kFlat.
  kBlocked,
  /// The PR 1 theta-parallel point-major loop, kept as the equivalence
  /// reference for kBlocked.
  kFlat,
};

struct HoughOptions {
  double rho_resolution = 1.0;                  // pixels per accumulator bin
  double theta_resolution_deg = 1.0;            // degrees per accumulator bin
  int votes_threshold = 0;                      // 0 -> adaptive (fraction of max)
  double adaptive_threshold_fraction = 0.35;     // used when votes_threshold == 0
  int max_lines = 8;
  /// Peak NMS window half-sizes in accumulator bins.
  int nms_rho_radius = 4;
  int nms_theta_radius = 4;
  HoughAccumulateMode accumulate_mode = HoughAccumulateMode::kBlocked;
};

/// Accumulator plus metadata, exposed for tests and diagnostics.
struct HoughAccumulator {
  Grid2D<int> votes;   // (theta_bin, rho_bin)
  double rho_min = 0.0;
  double rho_step = 1.0;
  double theta_step = 0.0;

  [[nodiscard]] double rho_of_bin(std::size_t bin) const {
    return rho_min + rho_step * static_cast<double>(bin);
  }
  [[nodiscard]] double theta_of_bin(std::size_t bin) const {
    return theta_step * static_cast<double>(bin);
  }
};

/// Vote all edge pixels (value != 0) into the accumulator.
[[nodiscard]] HoughAccumulator hough_accumulate(const GridU8& edges,
                                                const HoughOptions& options = {});

/// Extract up to max_lines peaks with NMS, sorted by votes descending.
[[nodiscard]] std::vector<HoughLine> hough_peaks(const HoughAccumulator& acc,
                                                 const HoughOptions& options = {});

/// Convenience: accumulate + peak extraction.
[[nodiscard]] std::vector<HoughLine> hough_lines(const GridU8& edges,
                                                 const HoughOptions& options = {});

}  // namespace qvg
