// Simulated experiment clock. The paper's runtime is dominated by the
// per-probe dwell time (50 ms for charge-sensor devices, ref [30]);
// paper_table1 and perfbench reproduce Table 1 runtimes by accounting dwell
// here and adding measured algorithm compute time.
#pragma once

#include <cstddef>

namespace qvg {

class SimClock {
 public:
  explicit SimClock(double dwell_seconds = 0.050);

  [[nodiscard]] double dwell_seconds() const noexcept { return dwell_; }

  /// Charge one probe (dwell) to the clock.
  void charge_probe() noexcept { elapsed_ += dwell_; }

  /// Charge `n` probes: bit-identical to n charge_probe() calls (the same
  /// additions in the same order), but the sum stays in a register instead
  /// of a store and reload per probe.
  void charge_probes(std::size_t n) noexcept {
    double elapsed = elapsed_;
    for (std::size_t i = 0; i < n; ++i) elapsed += dwell_;
    elapsed_ = elapsed;
  }

  /// Charge an arbitrary duration (e.g. voltage ramp settling).
  void charge(double seconds) noexcept { elapsed_ += seconds; }

  [[nodiscard]] double elapsed_seconds() const noexcept { return elapsed_; }

  void reset() noexcept { elapsed_ = 0.0; }

 private:
  double dwell_;
  double elapsed_ = 0.0;
};

}  // namespace qvg
