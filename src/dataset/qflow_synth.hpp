// Synthetic stand-in for the qflow v2 experimental benchmark (paper §5.1).
//
// The paper evaluates on the 12 experimentally measured CSDs of the qflow
// dataset (Si/SiGe triple-dot device measured in double-dot configuration,
// cropped to the four-region area, final sizes 63x63 .. 200x200). That data
// is not redistributable here, so this module builds 12 simulated
// benchmarks with the same pixel sizes and calibrated noise tiers:
//
//   * CSD 1, 2  (200x200): heavy noise — both methods are expected to fail,
//     like the two qflow devices the paper reports as too noisy.
//   * CSD 7     (100x100): faint steep line + moderate noise — Canny/Hough
//     cannot assemble enough edge points, while the sweeps still find the
//     maximum-gradient ridge (the paper's baseline-only failure).
//   * All others: clean-to-moderate tiers where both methods succeed.
//
// Every benchmark is deterministic (fixed seeds) and carries analytic
// ground truth for the automated success verdicts.
#pragma once

#include "device/dot_array.hpp"
#include "grid/csd.hpp"
#include "probe/playback.hpp"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace qvg {

struct QflowBenchmarkSpec {
  int index = 0;              // 1-based CSD index, matching Table 1
  std::size_t pixels = 100;   // square scan, pixels per axis
  std::uint64_t seed = 0;     // device jitter + noise seed
  double cross_ratio = 0.25;  // nearest-neighbour lever ratio of the device
  double device_jitter = 0.06;

  // Noise tier (sensor-current units; the ideal peak current is 1.0).
  double white_sigma = 0.02;
  double pink_sigma = 0.01;
  double telegraph_amplitude = 0.0;
  double telegraph_rate_hz = 0.5;

  /// Scales the sensor's charge sensitivity to dot 0 (the steep line's
  /// contrast); < 1 makes the steep line faint (benchmark 7).
  double dot0_sensitivity_scale = 1.0;

  /// Window fraction where dot 1's first-electron line sits (the shallow
  /// line's height, which also sets the triple point). Benchmark 7 places it
  /// low: the steep (0,0)->(1,0) segment below the triple point is then too
  /// short to clear the Hough vote threshold, while the sweeps still trace
  /// it point by point (the paper's baseline-only failure mode: "the edge
  /// detection in the baseline could not locate enough points to establish
  /// the line").
  double shallow_fraction = 0.48;

  std::string note;
};

/// The 12-benchmark suite specification, matching Table 1 sizes.
[[nodiscard]] std::vector<QflowBenchmarkSpec> qflow_suite_specs();

struct QflowBenchmark {
  QflowBenchmarkSpec spec;
  BuiltDevice device;
  /// Pre-measured noisy diagram (the replayed "experimental data"), with
  /// ground truth attached.
  Csd csd;

  [[nodiscard]] std::string name() const {
    return "csd" + std::to_string(spec.index);
  }
};

/// Build one benchmark: construct the jittered device, attach the noise
/// tier, and raster the full diagram once.
[[nodiscard]] QflowBenchmark build_qflow_benchmark(const QflowBenchmarkSpec& spec);

/// Build the whole suite (12 diagrams; the 200x200 entries dominate cost).
/// Benchmarks build concurrently on the global ThreadPool by default; the
/// result is bit-identical to a serial build (each diagram is deterministic
/// given its spec, and slots are filled by index).
[[nodiscard]] std::vector<QflowBenchmark> build_qflow_suite(
    bool parallel = true);

/// A playback CurrentSource over a benchmark's stored diagram, with the
/// paper's 50 ms dwell. (This mirrors §5.1: algorithms call the simulated
/// getCurrent, which returns data from the recorded CSD.)
[[nodiscard]] std::unique_ptr<CsdPlayback> make_playback(
    const QflowBenchmark& benchmark, double dwell_seconds = 0.050);

}  // namespace qvg
