// ExtractionEngine: the one public entry point for virtual gate extraction.
//
// The paper's pipeline grew per-module entry points (run_fast_extraction,
// run_hough_baseline, extract_array_virtualization) that each caller wires
// to a backend by hand. The engine unifies them behind a request/response
// API shaped for a production service:
//
//   * ExtractionRequest names the method (fast sweeps or the Canny+Hough
//     baseline) and the backend (a simulated device pair, or a recorded CSD
//     replayed through the paper's getCurrent), plus per-method options and
//     the noise seed.
//   * ExtractionReport carries a typed Status, the virtualization result,
//     ProbeStats, engine wall time, and — when the backend has ground truth
//     — the automated verdict.
//   * run() serves one request; run_batch() fans a request span out over the
//     global ThreadPool. Every request builds its own source, so the
//     schedule cannot change results: batch output is bit-identical to
//     running each request serially, and both are bit-identical to calling
//     the underlying entry points directly.
//   * Asynchronous submission lives in JobQueue (service/job_queue.hpp):
//     submit(request[, SubmitOptions]) -> JobHandle with
//     wait/try_report/cancel/progress, priority-scheduled with aging.
//     Requests carry an optional deadline and Budget; the engine threads
//     them (plus the job's CancelToken and ProgressSink) down to the probe
//     loops as an AcquisitionContext, so a cancelled or expired job stops
//     between probe batches with a typed kCancelled / kDeadlineExceeded /
//     kBudgetExhausted Status and partial ProbeStats, while every boundary
//     feeds the progress stream.
#pragma once

#include "common/cancellation.hpp"
#include "common/status.hpp"
#include "dataset/csd_io.hpp"
#include "extraction/array_extractor.hpp"
#include "extraction/fast_extractor.hpp"
#include "extraction/hough_baseline.hpp"
#include "extraction/success.hpp"
#include "grid/csd.hpp"
#include "probe/acquisition_context.hpp"
#include "probe/fault_injection.hpp"

#include <chrono>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace qvg {

/// Backend: a live simulated device, scanning one nearest-neighbour plunger
/// pair. The BuiltDevice must outlive the request.
struct DeviceBackend {
  const BuiltDevice* device = nullptr;
  std::size_t pair_index = 0;
  std::uint64_t noise_seed = 42;
  double dwell_seconds = 0.050;
  /// Square scan window resolution (used when the request has no explicit
  /// axes).
  std::size_t pixels_per_axis = 100;
  /// Measurement-noise tier attached to the simulator (sensor-current
  /// units; matches the qflow suite's noise families).
  double white_noise_sigma = 0.0;
  double pink_noise_sigma = 0.0;        // octave ladder tau 0.2 .. 30 s
  double telegraph_amplitude = 0.0;
  double telegraph_rate_hz = 0.5;
  /// Ground-state search strategy for probes with more than the exhaustive
  /// dot limit of active dots (the simulator derives the stochastic seed
  /// from noise_seed, so the request stays a pure description of the run).
  FrontierStrategy frontier = FrontierStrategy::kAnneal;
};

/// Backend: replay of a recorded diagram through the paper's simulated
/// getCurrent (§5.1), border-clamped, one dwell per probe. The Csd must
/// outlive the request.
struct PlaybackBackend {
  const Csd* csd = nullptr;
  double dwell_seconds = 0.050;
};

struct ExtractionRequest {
  ExtractionMethod method = ExtractionMethod::kFast;

  /// Exactly one backend must be set; naming none, or both, is reported as
  /// kInvalidRequest.
  DeviceBackend device;
  PlaybackBackend playback;

  /// Scan window override; defaults to the playback CSD's axes or the
  /// device's configured window at device.pixels_per_axis.
  std::optional<VoltageAxis> x_axis;
  std::optional<VoltageAxis> y_axis;

  FastExtractorOptions fast;
  HoughBaselineOptions hough;
  VerdictOptions verdict;

  /// Absolute wall-clock deadline: the request is interrupted at the next
  /// probe-batch boundary once it passes (kDeadlineExceeded, with the stage
  /// at the interruption point). Unset = no deadline.
  std::optional<std::chrono::steady_clock::time_point> deadline;
  /// Per-request resource budget (max probes / max wall seconds); see
  /// probe/acquisition_context.hpp. Zero fields = unlimited.
  Budget budget;

  /// Instrument-fault weather for this request (probe/fault_injection.hpp).
  /// An active schedule wraps the backend in a FaultInjectingCurrentSource
  /// and arms a FaultRecorder (so the report carries FaultStats); the
  /// default inactive schedule leaves the probe path exactly as before —
  /// bit-identical to a request without the field.
  FaultSchedule faults;
  /// Transient-fault recovery policy for the probe loops
  /// (probe/retry_policy.hpp). Only consulted when a probe batch actually
  /// fails, so it is inert on fault-free backends.
  RetryPolicy retry;
  /// Instrument transport model (probe/transport_options.hpp). The default
  /// (io_depth = 0) keeps the synchronous adapter lane — bit-identical to a
  /// request without the field; io_depth >= 1 routes the probe loops
  /// through an InstrumentDriver with up to io_depth batches in flight and
  /// arms a FaultRecorder so the report carries the driver counters. When
  /// the request also injects faults, io_depth is clamped to 1 (drift
  /// recovery is defined on a serial ring).
  TransportOptions transport;

  /// Free-form tag echoed into the report (job ids, CSD names, ...).
  std::string label;
};

struct ExtractionReport {
  std::string label;
  ExtractionMethod method = ExtractionMethod::kFast;

  /// Typed outcome: ok, or the stage+code that stopped the pipeline.
  Status status;

  // Final results, voltage units (meaningful when status.ok()).
  VirtualGatePair virtual_gates;
  double slope_steep = 0.0;
  double slope_shallow = 0.0;

  ProbeStats stats;
  /// What the fault-recovery layer absorbed: transient faults, retries,
  /// backoff charged, drift events, rows re-acquired. All zero for requests
  /// without an active FaultSchedule (no recorder is armed).
  FaultStats fault_stats;
  /// Times the job ran end to end: 1, plus any job-level re-runs the
  /// JobQueue performed after kProbeHardFault (SubmitOptions::max_job_retries).
  int job_attempts = 1;
  /// Engine-measured end-to-end wall time for this request (request
  /// validation + backend construction + extraction).
  double wall_seconds = 0.0;

  /// Automated verdict vs ground truth; valid when has_verdict (simulator
  /// backends always have truth, playback only when the CSD carries it).
  Verdict verdict;
  bool has_verdict = false;

  /// Full per-method stage outputs (exactly what the underlying entry point
  /// returned), for diagnostics and equivalence checks. Only the requested
  /// method's result is populated; the other one's status reads a kInternal
  /// "not run" failure so it can never be mistaken for a successful run.
  FastExtractionResult fast;    // populated when method == kFast
  HoughBaselineResult hough;    // populated when method == kHoughBaseline
};

class ExtractionEngine {
 public:
  ExtractionEngine();

  /// Serve one request synchronously (honouring its deadline and budget).
  [[nodiscard]] ExtractionReport run(const ExtractionRequest& request) const;

  /// Serve one request under a cancellation token and (optionally) a
  /// progress sink: the JobQueue's execution path. A request whose token
  /// fired before this call returns kCancelled with zero probes; one
  /// cancelled mid-run stops at the next probe-batch boundary with partial
  /// ProbeStats. Every stage and probe-batch boundary reports to the sink
  /// (stage name, probes issued, elapsed seconds). An uncancelled run is
  /// bit-identical to run(request) whether or not a sink is attached.
  [[nodiscard]] ExtractionReport run(const ExtractionRequest& request,
                                     const CancelToken& cancel,
                                     const ProgressSink& progress = {}) const;

  /// Serve a batch of requests concurrently over the global ThreadPool
  /// (serially under set_parallelism_enabled(false)), returning reports in
  /// request order.
  [[nodiscard]] std::vector<ExtractionReport> run_batch(
      std::span<const ExtractionRequest> requests) const;

  /// The paper's n-dot array walk (§2.3) as an engine batch: one device-
  /// backend request per nearest-neighbour pair, fanned out per
  /// options.parallel, composed in pair order. Bit-identical to
  /// extract_array_virtualization.
  [[nodiscard]] ArrayExtractionResult run_array(
      const BuiltDevice& device,
      const ArrayExtractionOptions& options = {}) const;
};

}  // namespace qvg
