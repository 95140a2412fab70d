// Full device simulator: constant-interaction physics + charge sensor +
// temporal noise, exposed through the CurrentSource experiment interface so
// every extraction algorithm can run against it directly (the "live device"
// mode) or against CSDs it generated (the paper's replay mode).
//
// The scan plan. A pair scan moves two gates and rests every other one at
// its base voltage, so most of each probe's arithmetic is the same at every
// probe. The simulator folds it once, at construction and again on every
// set_scan_pair, for each dot drive
// mu_i = -offset_i + sum_j alpha_ij V_j and for the sensor detuning
// u0 + sum_j beta_j V_j:
//
//   * the running sum over the gates below min(gate_x, gate_y);
//   * every resting-gate product alpha_ij * base_j above it.
//
// A probe multiplies only the two scanned columns and adds the folded terms
// in CapacitanceModel::dot_drives' ascending-gate order, so every drive and
// every detuning is bit-identical to the unplanned sum.
//
// Scan-window dominance. Under round-to-nearest each step of that sum is
// monotone non-decreasing in v1 and v2, because CapacitanceModel admits
// only lever arms >= 0 (a -0.0 one adds a zero of either sign, which `<`
// cannot tell apart). So a dot that the dominance pre-pass (see
// charge_state.hpp) finds empty at the upper corner of the probes seen so
// far — the largest v1 and the largest v2 — is empty at every probe at or
// below that corner. Each ProbeScratch (one per parallel chunk, so chunks
// share nothing) keeps that corner and the dots not dominated there, the
// candidates; the corner grows only when a probe exceeds it. A probe then
// computes the drives of the candidates only and solves the active ones,
// however many, through GroundStateSolver::solve_active. The full path
// (every drive, then GroundStateSolver::solve) runs instead when
//
//   * the model has <= kExhaustiveDotLimit dots (the whole model is solved
//     exactly, warm-started from the previous probe);
//   * a voltage is not finite (an infinite voltage times a zero lever arm
//     is NaN, which breaks the monotonicity).
//
// Either way the occupation is the one GroundStateSolver::solve returns,
// and the detuning subtracts every dot's gamma_i n_i from it in dot order.
#pragma once

#include "device/capacitance.hpp"
#include "device/charge_state.hpp"
#include "device/noise.hpp"
#include "device/sensor.hpp"
#include "grid/csd.hpp"
#include "probe/current_source.hpp"

#include <memory>
#include <string>
#include <utility>
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

  /// Every dot's drive at a voltage pair as the probe path computes it,
  /// from the scan plan: bit-identical to CapacitanceModel::dot_drives on
  /// the base voltages with the scanned pair set (the tests pin it).
  [[nodiscard]] std::vector<double> dot_drives_at(double v1, double v2) const;

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

  /// Charge-solver configuration (the occupancy cap). Every probe's
  /// occupation is a pure function of its voltages, so job-level retries
  /// and fault-injection reruns replay it bit-identically.
  [[nodiscard]] const ChargeSolverOptions& solver_options() const noexcept {
    return solver_options_;
  }
  /// Override the solver configuration. Resets the probe scratch's warm
  /// state.
  void set_solver_options(const ChargeSolverOptions& options);

  /// Reset clock, probe counter, noise state, and noise RNG (deterministic
  /// replay of an experiment).
  void reset();

 private:
  /// The folded resting gates of one scan pair (see the header comment).
  /// Row i < num_dots() is dot i's drive, row num_dots() the sensor's
  /// detuning before its occupation terms.
  struct ScanPlan {
    bool x_is_lo = true;       // gate_x < gate_y
    std::size_t mid = 0;       // resting gates between the scanned two
    std::size_t resting = 0;   // resting gates above the lower scanned one
    std::vector<double> prefix;      // per row: the sum below the scanned gates
    std::vector<double> lever_lo;    // per row: coefficient of the lower gate
    std::vector<double> lever_hi;    // per row: coefficient of the upper gate
    std::vector<double> products;    // rows x resting: coefficient * base
    std::vector<double> half_charging;  // per dot: Ec_i / 2
    /// Window dominance applies (more than kExhaustiveDotLimit dots).
    bool windowed = false;

    /// Row r's sum at scanned voltages (v_lo, v_hi) on the lower and upper
    /// scanned gates, in the unplanned ascending-gate order.
    [[nodiscard]] double sum(std::size_t r, double v_lo, double v_hi) const {
      const double* p = products.data() + r * resting;
      double acc = prefix[r] + lever_lo[r] * v_lo;
      std::size_t k = 0;
      for (; k < mid; ++k) acc += p[k];
      acc += lever_hi[r] * v_hi;
      for (; k < resting; ++k) acc += p[k];
      return acc;
    }
  };

  /// Per-thread scratch for the allocation-free probe path. One
  /// GroundStateSolver serves every device size: up to kExhaustiveDotLimit
  /// dots it solves the whole model exactly, warm-started from `warm` (the
  /// previous probe); above it, the dominance pre-pass leaves the active
  /// dots to the branch-and-bound (capped past the limit) and ignores
  /// `warm` (the result is a function of the probe).
  struct ProbeScratch {
    std::vector<double> drives;
    std::vector<int> warm;
    bool has_warm = false;
    /// Scan-window dominance: the upper corner of the probes seen since the
    /// plan was built, and the dots not dominated there.
    bool has_corner = false;
    double corner_x = 0.0;
    double corner_y = 0.0;
    std::vector<std::size_t> candidates;
    std::vector<std::size_t> active;
    std::vector<double> active_drives;
    std::vector<int> occupation;  // the candidate path's result
    GroundStateSolver solver;
  };

  /// Rebuild plan_ from the model, sensor, base voltages and scan pair, and
  /// drop scratch_'s window corner.
  void build_plan();
  /// The scanned voltages as (lower gate, upper gate).
  [[nodiscard]] std::pair<double, double> lo_hi(double v1, double v2) const {
    return plan_.x_is_lo ? std::pair{v1, v2} : std::pair{v2, v1};
  }
  /// Every dot's drive at (v1, v2) from the plan, into `out`.
  void drives_into(double v1, double v2, std::vector<double>& out) const;
  /// Grow ws's window corner to cover (v1, v2), refreshing its candidates
  /// when it moves; true when the candidate path may serve the probe (a
  /// windowed plan and finite voltages).
  bool window_covers(ProbeScratch& ws, double v1, double v2) const;
  /// Ground-state occupation on the candidate path, at the scanned voltages
  /// as (lower gate, upper gate); needs window_covers to have passed.
  const std::vector<int>& window_occupation(ProbeScratch& ws, double v_lo,
                                            double v_hi) const;
  /// Ground-state occupation via the scratch workspace and the full path
  /// (no allocation after the first call).
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
  ScanPlan plan_;
  mutable ProbeScratch scratch_;
};

}  // namespace qvg
