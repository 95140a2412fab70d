// The paper's Algorithm 2: the feature gradient.
//
// A charge-state transition line produces a sharp *drop* in sensor current
// when crossed toward increasing voltages (an electron loads and shifts the
// sensor peak). The feature gradient of a pixel sums its current difference
// with the right and upper-right neighbours,
//
//   g(v1, v2) = (c - c_right) + (c - c_upper_right)
//   c            = getCurrent(v1,         v2)
//   c_right      = getCurrent(v1 + delta, v2)
//   c_upper_right= getCurrent(v1 + delta, v2 + delta)
//
// so it is large and positive exactly on the transition lines ("positively
// tilted gradient", Figure 4). delta is the voltage granularity (pixel size).
#pragma once

#include "probe/current_source.hpp"

#include <span>
#include <vector>

namespace qvg {

class BatchPipeline;

/// Evaluate the feature gradient at gate voltages (v1, v2) = (x, y) with
/// pixel sizes (delta_x, delta_y). Costs up to three probes (shared
/// neighbours hit the ProbeCache when evaluated on a sweep).
[[nodiscard]] double feature_gradient(CurrentSource& source, double v1,
                                      double v2, double delta_x,
                                      double delta_y);

/// Batched Algorithm 2: queue gradient centres with add(), then submit()
/// issues all of their probes as ONE batch through a BatchPipeline — in the
/// exact order the scalar feature_gradient loop would issue them, so results
/// (and, through a ProbeCache, the probe log and statistics) are
/// bit-identical to probing point by point. Once that batch completed ok,
/// reduce() turns the received currents into one gradient per centre.
/// Buffers are reused across submissions; one instance per sweep keeps the
/// hot loop allocation-free at steady state.
class FeatureGradientBatch {
 public:
  void clear() { centers_.clear(); }
  void add(double v1, double v2) { centers_.push_back({v1, v2}); }
  [[nodiscard]] std::size_t size() const noexcept { return centers_.size(); }

  /// Submit the queued centres' probes. Until the batch completes, the
  /// instance must not be touched (the lane writes its currents buffer).
  void submit(BatchPipeline& pipeline, double delta_x, double delta_y);

  /// One gradient per centre, in add() order, valid until the next submit().
  [[nodiscard]] std::span<const double> reduce();

 private:
  std::vector<Point2> centers_;
  std::vector<Point2> probes_;
  std::vector<double> currents_;
  std::vector<double> gradients_;
};

}  // namespace qvg
