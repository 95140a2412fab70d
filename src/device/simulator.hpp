// Full device simulator: constant-interaction physics + charge sensor +
// temporal noise, exposed through the CurrentSource experiment interface so
// every extraction algorithm can run against it directly (the "live device"
// mode) or against CSDs it generated (the paper's replay mode).
#pragma once

#include "device/capacitance.hpp"
#include "device/charge_state.hpp"
#include "device/noise.hpp"
#include "device/sensor.hpp"
#include "grid/csd.hpp"
#include "probe/current_source.hpp"

#include <memory>
#include <string>
#include <vector>

namespace qvg {

/// Which two gates a double-dot scan sweeps, and which dots they address.
struct ScanPair {
  std::size_t gate_x = 0;  // x-axis gate (VP1)
  std::size_t gate_y = 1;  // y-axis gate (VP2)
  std::size_t dot_x = 0;   // dot whose addition line is steep in this plane
  std::size_t dot_y = 1;   // dot whose addition line is shallow
};

/// How evaluate_raster computes each pixel.
enum class RasterEvalMode {
  /// Incremental solver, reused scratch buffers, warm-started from the
  /// previous pixel in the row. The production path.
  kFast,
  /// The pre-optimization reference path: fresh voltage/drive vectors per
  /// pixel and full O(n^2)-per-state energy recomputes. Kept as the
  /// equivalence tests' oracle.
  kNaive,
};

struct RasterEvalOptions {
  RasterEvalMode mode = RasterEvalMode::kFast;
  /// Row-parallel evaluation on the global ThreadPool (kFast only; results
  /// are bit-identical to serial because rows are independent and warm
  /// starts reset at each row).
  bool parallel = true;
};

class DeviceSimulator final : public CurrentSource {
 public:
  DeviceSimulator(CapacitanceModel model, SensorConfig sensor_config,
                  std::vector<double> base_voltages, ScanPair pair,
                  std::uint64_t noise_seed = 42,
                  double dwell_seconds = 0.050);

  /// Attach a noise process (sums with any already attached).
  void add_noise(std::unique_ptr<NoiseProcess> process);

  // CurrentSource interface (Algorithm 1).
  double get_current(double v1, double v2) override;

  /// Batched probes: the noise-free physics of the whole batch evaluates in
  /// parallel chunks on the global ThreadPool (the raster path's machinery;
  /// chunking is bit-identical to the scalar chain because the exact solver's
  /// result does not depend on its warm start), then temporal noise is
  /// applied in probe order. Output, probe count, clock, and noise state
  /// match the scalar get_current loop exactly.
  void get_currents(std::span<const Point2> points,
                    std::span<double> out) override;
  [[nodiscard]] SimClock& clock() override { return clock_; }
  [[nodiscard]] const SimClock& clock() const override { return clock_; }
  [[nodiscard]] long probe_count() const override { return probes_; }

  /// Noise-free current at a voltage pair (reference for tests and SNR
  /// calibration). Allocation-free: reuses an internal scratch workspace,
  /// so concurrent calls on the same simulator are not safe — use
  /// evaluate_raster for batched/parallel evaluation.
  [[nodiscard]] double ideal_current(double v1, double v2) const;

  /// Ground-state occupation at a voltage pair. Shares the internal scratch
  /// workspace with ideal_current: not safe to call concurrently on the
  /// same simulator.
  [[nodiscard]] std::vector<int> occupation_at(double v1, double v2) const;

  /// Batched noise-free evaluation of every pixel of the window (the
  /// dense-raster hot path). Probe-free: does not touch the clock, probe
  /// counter, or noise state.
  [[nodiscard]] GridD evaluate_raster(const VoltageAxis& x_axis,
                                      const VoltageAxis& y_axis,
                                      const RasterEvalOptions& opts = {}) const;

  /// Analytic transition-line ground truth for the scanned pair.
  [[nodiscard]] TransitionTruth truth() const;

  /// Acquire a full CSD over the given axes (raster scan through this
  /// simulator, so it costs probes and simulated time) and stamp it with the
  /// ground truth. `name` labels the diagram for reports. Internally uses
  /// the batched evaluate_raster path, then applies temporal noise in probe
  /// order — identical output to probing pixel-by-pixel via get_current.
  [[nodiscard]] Csd generate_csd(const VoltageAxis& x_axis,
                                 const VoltageAxis& y_axis,
                                 const std::string& name = {});

  [[nodiscard]] const CapacitanceModel& model() const noexcept { return model_; }
  [[nodiscard]] const ChargeSensor& sensor() const noexcept { return sensor_; }
  [[nodiscard]] const ScanPair& scan_pair() const noexcept { return pair_; }
  [[nodiscard]] const std::vector<double>& base_voltages() const noexcept {
    return base_voltages_;
  }

  /// Change the scanned gate pair (used by the n-dot array extractor as it
  /// walks neighbouring plunger pairs).
  void set_scan_pair(ScanPair pair);

  /// Update a base (non-swept) gate voltage.
  void set_base_voltage(std::size_t gate, double voltage);

  /// Charge-solver configuration. The constructor derives
  /// frontier.seed deterministically from the noise seed (the request
  /// seed), so every anneal above kExhaustiveDotLimit active dots is a pure
  /// function of the request — job-level retries and fault-injection reruns
  /// replay it bit-identically.
  [[nodiscard]] const ChargeSolverOptions& solver_options() const noexcept {
    return solver_options_;
  }
  /// Override the solver configuration (occupancy cap, anneal seed). Resets
  /// the probe scratch's warm state.
  void set_solver_options(const ChargeSolverOptions& options);

  /// Reset clock, probe counter, noise state, and noise RNG (deterministic
  /// replay of an experiment).
  void reset();

 private:
  /// Per-thread scratch for the allocation-free probe path. One
  /// GroundStateSolver serves every device size: up to kExhaustiveDotLimit
  /// dots it solves the whole model exactly, warm-started from `warm` (the
  /// previous probe); above it, the dominance pre-pass solves the active
  /// dots exactly, or anneals when more than the limit are active, and
  /// ignores `warm` (the result is a function of the probe).
  struct ProbeScratch {
    std::vector<double> voltages;
    std::vector<double> drives;
    std::vector<int> warm;
    bool has_warm = false;
    GroundStateSolver solver;
  };

  /// Ground-state occupation via the scratch workspace (no allocation after
  /// the first call); leaves the full voltage vector in ws.voltages.
  const std::vector<int>& occupation_with(ProbeScratch& ws, double v1,
                                          double v2) const;
  [[nodiscard]] double probe_with(ProbeScratch& ws, double v1, double v2) const;
  [[nodiscard]] double ideal_current_naive(double v1, double v2) const;

  CapacitanceModel model_;
  ChargeSensor sensor_;
  std::vector<double> base_voltages_;
  ScanPair pair_;
  ChargeSolverOptions solver_options_;
  CompositeNoise noise_;
  Rng rng_;
  std::uint64_t noise_seed_;
  SimClock clock_;
  long probes_ = 0;
  mutable ProbeScratch scratch_;
};

}  // namespace qvg
