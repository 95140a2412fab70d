#include "service/extraction_engine.hpp"

#include "common/assert.hpp"
#include "common/stopwatch.hpp"
#include "common/thread_pool.hpp"
#include "device/noise.hpp"
#include "probe/playback.hpp"

#include <memory>
#include <utility>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace qvg {

namespace {

/// Keep freed job memory in the process heap. A 200 px Hough baseline job
/// allocates and frees ~2 MB of image buffers; glibc's default trim
/// threshold (twice the largest freed mmap chunk, ~640 KB here) hands that
/// back to the kernel after every job, so the next job re-faults it page by
/// page — a quarter of the job's time, and a cost that swings with host
/// memory load. Pinning the thresholds at the ceilings glibc's dynamic
/// scheme climbs to (32 MiB mmap, twice that for trim) lets jobs reuse the
/// heap, for under 1 MB more peak RSS. Process-wide, set once.
void retain_freed_job_memory() {
#if defined(__GLIBC__)
  static const bool done = [] {
    constexpr int kMmapThreshold = 32 << 20;
    mallopt(M_MMAP_THRESHOLD, kMmapThreshold);
    mallopt(M_TRIM_THRESHOLD, 2 * kMmapThreshold);
    return true;
  }();
  (void)done;
#endif
}

/// Build the simulator a DeviceBackend describes: the pair's scan plane and
/// nearest charge sensor, plus the requested noise tier (attachment order
/// matches the qflow suite builder: white, pink, telegraph).
DeviceSimulator make_backend_simulator(const DeviceBackend& backend) {
  DeviceSimulator sim =
      make_pair_simulator(*backend.device, backend.pair_index,
                          backend.noise_seed, backend.dwell_seconds);
  {
    ChargeSolverOptions solver = sim.solver_options();
    solver.frontier.strategy = backend.frontier;
    sim.set_solver_options(solver);
  }
  if (backend.white_noise_sigma > 0.0)
    sim.add_noise(std::make_unique<WhiteNoise>(backend.white_noise_sigma));
  if (backend.pink_noise_sigma > 0.0)
    sim.add_noise(std::make_unique<PinkNoise>(backend.pink_noise_sigma,
                                              /*tau_min=*/0.2,
                                              /*tau_max=*/30.0));
  if (backend.telegraph_amplitude > 0.0)
    sim.add_noise(std::make_unique<TelegraphNoise>(
        backend.telegraph_amplitude, backend.telegraph_rate_hz));
  return sim;
}

/// Run the requested method against the constructed source and fill the
/// method-specific halves of the report.
void run_method(const ExtractionRequest& request, CurrentSource& source,
                const VoltageAxis& x_axis, const VoltageAxis& y_axis,
                const AcquisitionContext& context, ExtractionReport& report) {
  if (request.method == ExtractionMethod::kFast) {
    report.fast =
        run_fast_extraction(source, x_axis, y_axis, request.fast, context);
    report.status = report.fast.status;
    report.virtual_gates = report.fast.virtual_gates;
    report.slope_steep = report.fast.slope_steep;
    report.slope_shallow = report.fast.slope_shallow;
    report.stats = report.fast.stats;
  } else {
    report.hough =
        run_hough_baseline(source, x_axis, y_axis, request.hough, context);
    report.status = report.hough.status;
    report.virtual_gates = report.hough.virtual_gates;
    report.slope_steep = report.hough.slope_steep;
    report.slope_shallow = report.hough.slope_shallow;
    report.stats = report.hough.stats;
  }
}

/// The per-job AcquisitionContext: the job's cancel token and progress sink
/// plus the request's deadline, with Budget.max_wall_seconds folded in as a
/// deadline relative to now (the job start — the queue builds the context
/// when the job begins running, not when it is submitted).
AcquisitionContext make_context(const ExtractionRequest& request,
                                const CancelToken& cancel,
                                const ProgressSink& progress) {
  AcquisitionContext context;
  context.cancel = cancel;
  context.progress = progress;
  context.deadline = request.deadline;
  if (request.budget.max_wall_seconds > 0.0) {
    const auto budget_deadline =
        AcquisitionContext::Clock::now() +
        std::chrono::duration_cast<AcquisitionContext::Clock::duration>(
            std::chrono::duration<double>(request.budget.max_wall_seconds));
    if (!context.deadline || budget_deadline < *context.deadline)
      context.deadline = budget_deadline;
  }
  context.max_probes = request.budget.max_probes;
  context.retry = request.retry;
  context.transport = request.transport;
  // Drift recovery re-probes stale batches against the recalibrated source;
  // with transfers pipelined ahead of the recovery point the re-issue order
  // would depend on what was already in flight, so fault-injected jobs run
  // the driver at depth 1 (synchronous submission, full transport charge).
  if (request.faults.active() && context.transport.io_depth > 1)
    context.transport.io_depth = 1;
  // A fault recorder is armed only when something can actually feed it —
  // injected faults, or a transport driver reporting its counters: the
  // default request keeps FaultRecorder empty, so limited() stays false for
  // plain unlimited runs and the single-batch fast paths (and their
  // bit-identity with earlier PRs) are untouched.
  if (request.faults.active() || context.transport.enabled())
    context.faults = FaultRecorder::make();
  return context;
}

/// Run the requested method, wrapping the backend in a
/// FaultInjectingCurrentSource when the request carries an active
/// FaultSchedule (the injector adds one inert virtual hop otherwise — we
/// skip even that).
void run_method_with_faults(const ExtractionRequest& request,
                            CurrentSource& source, const VoltageAxis& x_axis,
                            const VoltageAxis& y_axis,
                            const AcquisitionContext& context,
                            ExtractionReport& report) {
  if (request.faults.active()) {
    FaultInjectingCurrentSource injected(source, request.faults);
    run_method(request, injected, x_axis, y_axis, context, report);
  } else {
    run_method(request, source, x_axis, y_axis, context, report);
  }
}

}  // namespace

ExtractionEngine::ExtractionEngine() { retain_freed_job_memory(); }

ExtractionReport ExtractionEngine::run(const ExtractionRequest& request) const {
  return run(request, CancelToken{});
}

ExtractionReport ExtractionEngine::run(const ExtractionRequest& request,
                                       const CancelToken& cancel,
                                       const ProgressSink& progress) const {
  Stopwatch wall;
  const AcquisitionContext context = make_context(request, cancel, progress);
  ExtractionReport report;
  report.label = request.label;
  report.method = request.method;
  // Pre-mark both stage results as not-run; run_method replaces the one the
  // request names. A default-constructed Status is ok, and an unpopulated
  // stage result must never read as a successful extraction.
  report.fast.status = Status::failure(ErrorCode::kInternal, "engine",
                                       "fast pipeline not run");
  report.hough.status = Status::failure(ErrorCode::kInternal, "engine",
                                        "hough pipeline not run");

  // Cancel-before-start / already-expired: report before any backend is
  // built or probe issued (zero ProbeStats), stage "engine".
  if (Status interrupt = context.check("engine", 0); !interrupt.ok()) {
    report.status = std::move(interrupt);
    report.wall_seconds = wall.elapsed_seconds();
    return report;
  }

  if (request.playback.csd != nullptr && request.device.device != nullptr) {
    report.status = Status::failure(
        ErrorCode::kInvalidRequest, "engine",
        "request names both a playback CSD and a device backend; set "
        "exactly one");
  } else if (request.playback.csd != nullptr) {
    const Csd& csd = *request.playback.csd;
    CsdPlayback playback(csd, request.playback.dwell_seconds);
    const VoltageAxis x = request.x_axis.value_or(csd.x_axis());
    const VoltageAxis y = request.y_axis.value_or(csd.y_axis());
    run_method_with_faults(request, playback, x, y, context, report);
    if (csd.truth()) {
      report.verdict = judge_extraction(report.status.ok(),
                                        report.virtual_gates, *csd.truth(),
                                        request.verdict);
      report.has_verdict = true;
    }
  } else if (request.device.device != nullptr) {
    // Request *data* is caller input, not a programming contract: validate
    // it here so a malformed request yields a typed report (and cannot
    // abort a whole run_batch by throwing out of a pool worker).
    const std::size_t n_dots = request.device.device->model.num_dots();
    if (request.device.pair_index + 1 >= n_dots) {
      report.status = Status::failure(
          ErrorCode::kInvalidRequest, "engine",
          "pair_index " + std::to_string(request.device.pair_index) +
              " out of range for a " + std::to_string(n_dots) +
              "-dot device");
      report.wall_seconds = wall.elapsed_seconds();
      return report;
    }
    if ((!request.x_axis || !request.y_axis) &&
        request.device.pixels_per_axis < 16) {
      report.status = Status::failure(
          ErrorCode::kInvalidRequest, "engine",
          "pixels_per_axis must be >= 16 (got " +
              std::to_string(request.device.pixels_per_axis) + ")");
      report.wall_seconds = wall.elapsed_seconds();
      return report;
    }
    DeviceSimulator sim = make_backend_simulator(request.device);
    const VoltageAxis default_axis =
        scan_axis(*request.device.device, request.device.pixels_per_axis);
    const VoltageAxis x = request.x_axis.value_or(default_axis);
    const VoltageAxis y = request.y_axis.value_or(default_axis);
    run_method_with_faults(request, sim, x, y, context, report);
    report.verdict = judge_extraction(report.status.ok(), report.virtual_gates,
                                      sim.truth(), request.verdict);
    report.has_verdict = true;
  } else {
    report.status = Status::failure(ErrorCode::kInvalidRequest, "engine",
                                    "request names no backend (set "
                                    "playback.csd or device.device)");
  }

  report.fault_stats = context.faults.snapshot();
  report.wall_seconds = wall.elapsed_seconds();
  return report;
}

std::vector<ExtractionReport> ExtractionEngine::run_batch(
    std::span<const ExtractionRequest> requests) const {
  // Each request builds its own backend source, so jobs share no mutable
  // state; each writes only its preallocated slot, making the batch output
  // independent of the pool schedule.
  std::vector<ExtractionReport> reports(requests.size());
  auto serve = [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) reports[i] = run(requests[i]);
  };
  parallel_for_rows(requests.size(), serve, 1);
  return reports;
}

ArrayExtractionResult ExtractionEngine::run_array(
    const BuiltDevice& device, const ArrayExtractionOptions& opt) const {
  const std::size_t n = device.model.num_dots();
  QVG_EXPECTS(n >= 2);
  QVG_EXPECTS(opt.pixels_per_axis >= 16);

  // One request per nearest-neighbour pair, mirroring extract_array_pair's
  // per-pair simulator construction exactly (seed derived from the pair
  // index, white-noise tier, square window). KEEP IN SYNC with
  // extract_array_pair (extraction/array_extractor.cpp): any new
  // ArrayExtractionOptions field consumed there must be mapped into the
  // request here, or the engine==direct bit-identity breaks.
  std::vector<ExtractionRequest> requests(n - 1);
  for (std::size_t pair_index = 0; pair_index + 1 < n; ++pair_index) {
    ExtractionRequest& request = requests[pair_index];
    request.method = opt.method;
    request.device.device = &device;
    request.device.pair_index = pair_index;
    request.device.noise_seed = opt.noise_seed + pair_index;
    request.device.dwell_seconds = opt.dwell_seconds;
    request.device.pixels_per_axis = opt.pixels_per_axis;
    request.device.white_noise_sigma = opt.white_noise_sigma;
    request.device.frontier = opt.frontier;
    request.fast = opt.fast;
    request.hough = opt.baseline;
    request.verdict = opt.verdict;
    request.label = "pair-" + std::to_string(pair_index);
  }

  // Execute the same shard plan the direct walk runs: shards fan out, each
  // shard serves its requests serially. Reports are schedule-independent, so
  // this stays bit-identical to run_batch — but the scheduling (and the
  // composed per-shard stats) now match extract_array_virtualization.
  const auto plan = plan_array_shards(requests.size(), opt.shards);
  std::vector<ExtractionReport> reports(requests.size());
  auto run_shards = [&](std::size_t lo, std::size_t hi) {
    for (std::size_t s = lo; s < hi; ++s)
      for (const std::size_t idx : plan[s]) reports[idx] = run(requests[idx]);
  };
  if (opt.parallel)
    parallel_for_rows(plan.size(), run_shards, 1);
  else
    run_shards(0, plan.size());

  std::vector<PairExtraction> pairs(reports.size());
  for (std::size_t i = 0; i < reports.size(); ++i) {
    pairs[i].pair_index = i;
    pairs[i].status = reports[i].status;
    pairs[i].gates = reports[i].virtual_gates;
    pairs[i].verdict = reports[i].verdict;
    pairs[i].stats = reports[i].stats;
  }
  return compose_array_result(device, std::move(pairs), opt.shards);
}

}  // namespace qvg
