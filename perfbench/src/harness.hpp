// Shared machinery of the repo benchmark: run configuration, timed windows
// with raw per-job samples, the end-to-end metric set, host calibration,
// and the tracing helpers that time each layer from outside through its
// public calls (a timing CurrentSource decorator and a stage-by-stage
// rebuild of the fast extraction).
#pragma once

#include "extraction/fast_extractor.hpp"
#include "probe/current_source.hpp"
#include "service/extraction_engine.hpp"

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string raw_dir;  // empty = keep no raw samples
};

/// splitmix64 of (seed, stream): independent, reproducible per-input seeds
/// derived from the one workload seed.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed,
                                        std::uint64_t stream);

/// Linearly interpolated percentile, p in [0, 1]; 0 for an empty set.
[[nodiscard]] double percentile(std::vector<double> values, double p);
[[nodiscard]] double mean(const std::vector<double>& values);

/// Process user + system CPU seconds so far.
[[nodiscard]] double process_cpu_seconds();
/// Peak resident set size of the process, MB.
[[nodiscard]] double peak_rss_mb();

/// One timed phase of closed-loop jobs. Raw samples are kept per job:
/// start/end offsets (seconds) from the phase origin and the index of the
/// workload input the job ran.
struct Window {
  Clock::time_point origin = Clock::now();
  std::vector<double> start_s;
  std::vector<double> end_s;
  std::vector<std::uint32_t> input;
  /// Wall seconds during which jobs were running (excludes any set-up the
  /// phase interleaves, e.g. server restarts).
  double active_seconds = 0.0;
  double cpu_seconds = 0.0;
  long attempted = 0;
  long failed = 0;

  void record(std::uint32_t input_index, Clock::time_point start,
              Clock::time_point end);
  /// Append another window's samples (same origin).
  void merge(const Window& other);
  [[nodiscard]] std::vector<double> latencies_ms() const;
  /// Latencies grouped by input index, ms.
  [[nodiscard]] std::vector<std::vector<double>> latencies_ms_by_input(
      std::size_t inputs) const;
  [[nodiscard]] double jobs_per_s() const;
};

/// What the engine adds on top of the layers a trace rebuilds: the mean
/// over inputs of (median engine wall − median traced layer sum), given
/// per-input samples of both in ms.
[[nodiscard]] double engine_overhead_ms(
    const std::vector<std::vector<double>>& engine_ms,
    const std::vector<std::vector<double>>& layers_ms);

/// Deterministic per-job cost of a workload's inputs, computed once from
/// the reference reports (the paper's own metrics).
struct WorkloadCost {
  double sim_s_per_job = 0.0;
  double probes_per_job = 0.0;
  double success_fraction = 0.0;
  double speedup_vs_baseline = 0.0;
};

/// Named metric values, printed as a table and as the result JSON.
class Metrics {
 public:
  void add(std::string name, double value, std::string unit);
  [[nodiscard]] std::string table() const;
  [[nodiscard]] std::string json() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// The end-to-end metric set of BENCHMARK.json, from the set-up samples,
/// the untraced window and the workload cost.
[[nodiscard]] Metrics end_to_end_metrics(const std::vector<double>& setup_s,
                                         const Window& window,
                                         const WorkloadCost& cost);

/// What a workload run hands back to main.
struct Outcome {
  bool correct = true;
  long attempted = 0;
  long failed = 0;
  Metrics metrics;
  /// Human-readable lines printed ahead of the result (checks, notes).
  std::vector<std::string> notes;
  /// Named phases whose raw samples are written out.
  std::vector<std::pair<std::string, Window>> phases;
};

/// Per-layer values by metric name. per_layer_metrics prints every
/// per-layer metric of BENCHMARK.json in a fixed order, 0 where the
/// workload never enters that layer; an unknown name is a bench bug.
using LayerValues = std::map<std::string, double>;
[[nodiscard]] Metrics per_layer_metrics(const LayerValues& values);

/// Host facts recorded with every run.
struct Host {
  unsigned nproc = 0;
  double parallel_capacity = 0.0;
  std::size_t pool_threads = 0;
  std::string qvg_threads;
  std::string cpu;
  std::string compiler;
  std::string build_flags;
  std::string simd;
};
[[nodiscard]] Host calibrate_host();
[[nodiscard]] std::string host_json(const Host& host);

/// Write the run's raw samples (per-phase start/end vectors) as JSON.
void write_raw(const RunConfig& config, const Host& host,
               const Outcome& outcome);

// --- tracing ---------------------------------------------------------------

/// CurrentSource decorator timing every call into the wrapped backend. The
/// calls forward unchanged, so results, probe counts and clock charge are
/// those of the inner source.
class TimedSource final : public qvg::CurrentSource {
 public:
  explicit TimedSource(qvg::CurrentSource& inner) : inner_(inner) {}

  double get_current(double v1, double v2) override;
  void get_currents(std::span<const qvg::Point2> points,
                    std::span<double> out) override;
  [[nodiscard]] qvg::Status try_get_currents(
      std::span<const qvg::Point2> points, std::span<double> out) override;
  [[nodiscard]] long drift_started_at_probe() const override {
    return inner_.drift_started_at_probe();
  }
  [[nodiscard]] qvg::SimClock& clock() override { return inner_.clock(); }
  [[nodiscard]] const qvg::SimClock& clock() const override {
    return inner_.clock();
  }
  [[nodiscard]] long probe_count() const override {
    return inner_.probe_count();
  }

  [[nodiscard]] double seconds() const noexcept { return seconds_; }
  [[nodiscard]] long calls() const noexcept { return calls_; }

 private:
  qvg::CurrentSource& inner_;
  double seconds_ = 0.0;
  long calls_ = 0;
};

/// Per-stage record of one traced fast extraction.
struct FastTrace {
  double anchors_s = 0.0;
  double sweeps_s = 0.0;
  double filter_s = 0.0;
  double fit_s = 0.0;  // piecewise fit + virtualization
  long anchor_probes = 0;  // unique probes issued by the anchor stage
  long sweep_probes = 0;   // unique probes issued by the sweeps
  long raw_points = 0;
  long kept_points = 0;
  long cache_requests = 0;
  long cache_hits = 0;

  [[nodiscard]] double stage_sum() const {
    return anchors_s + sweeps_s + filter_s + fit_s;
  }
  FastTrace& operator+=(const FastTrace& other);
};

/// Fold a summed fast-extraction trace into per-job layer values.
void add_fast_trace(LayerValues& values, const FastTrace& total, double jobs);

/// The deterministic outputs a traced rebuild must share with the engine.
struct FastOutcome {
  qvg::Status status;
  qvg::VirtualGatePair gates;
  double slope_steep = 0.0;
  double slope_shallow = 0.0;
  qvg::ProbeStats stats;  // compute_seconds left at 0
  std::size_t probe_log_size = 0;
};

/// run_fast_extraction's stage sequence rebuilt from the public stage calls
/// (find_anchor_points, run_sweeps, postprocess_transition_points,
/// fit_piecewise_linear, virtualization_from_slopes) over a bench-side
/// ProbeCache and acquisition lane, each stage timed from outside.
[[nodiscard]] FastOutcome traced_fast_extraction(
    qvg::CurrentSource& source, const qvg::VoltageAxis& x_axis,
    const qvg::VoltageAxis& y_axis,
    const qvg::FastExtractorOptions& options,
    const qvg::AcquisitionContext& context, FastTrace& trace);

/// Whether a traced rebuild matches an engine report on every
/// deterministic field (status, gates, slopes, probe counts, probe-log
/// length, simulated seconds).
[[nodiscard]] bool same_fast_outcome(const FastOutcome& traced,
                                     const qvg::ExtractionReport& report);

/// The AcquisitionContext ExtractionEngine::run builds for an uncancelled
/// request without deadline or budget.
[[nodiscard]] qvg::AcquisitionContext engine_context(
    const qvg::ExtractionRequest& request);

/// The simulator ExtractionEngine::run builds for a DeviceBackend.
[[nodiscard]] qvg::DeviceSimulator backend_simulator(
    const qvg::DeviceBackend& backend);

}  // namespace perfbench
