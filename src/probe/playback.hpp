// CurrentSource backed by a stored charge stability diagram.
//
// This mirrors the paper's evaluation methodology (§5.1): "When the proposed
// algorithm needs to obtain a data point with a specific voltage
// combination, it will call a simulated getCurrent function ... The
// getCurrent function will return a current from a CSD in the dataset". Each
// call costs one dwell time on the simulated clock.
#pragma once

#include "grid/csd.hpp"
#include "probe/current_source.hpp"

namespace qvg {

class CsdPlayback final : public CurrentSource {
 public:
  /// The playback keeps a reference; the CSD must outlive it.
  explicit CsdPlayback(const Csd& csd, double dwell_seconds = 0.050);

  /// Returns the stored current at the pixel nearest to (v1, v2). Requests
  /// outside the recorded window are clamped to the border, mirroring a scan
  /// that rails at its configured limits.
  double get_current(double v1, double v2) override;

  /// Batched lookup with the same border clamp, bit-identical to the scalar
  /// loop (one probe and one dwell per point, summed in order).
  void get_currents(std::span<const Point2> points,
                    std::span<double> out) override;

  [[nodiscard]] SimClock& clock() override { return clock_; }
  [[nodiscard]] const SimClock& clock() const override { return clock_; }
  [[nodiscard]] long probe_count() const override { return probes_; }

  [[nodiscard]] const Csd& csd() const noexcept { return csd_; }

 private:
  /// The stored current nearest to (v1, v2); both entry points share it.
  [[nodiscard]] double lookup(double v1, double v2) const;

  const Csd& csd_;
  SimClock clock_;
  long probes_ = 0;
};

}  // namespace qvg
