// table1_playback: the paper's own workload. One caller replays the 12-CSD
// synthetic qflow suite through CsdPlayback, running the fast extraction
// and the Canny/Hough baseline on every CSD (24 ExtractionEngine::run jobs
// per pass, in a seeded order). The suite itself is fixed — its 10/12 +
// 9/12 verdict shape is the reproduction's correctness gate — so the seed
// drives the replay order.
#include "workloads.hpp"

#include "common/random.hpp"
#include "dataset/qflow_synth.hpp"
#include "imgproc/filters.hpp"
#include "probe/playback.hpp"
#include "probe/raster.hpp"

#include <algorithm>
#include <cstdio>
#include <numeric>

namespace perfbench {

using namespace qvg;

namespace {

// One set-up sample — a full suite build, discarded — is taken every
// kSetupEverySeconds of the run, so setup_s samples the host across the
// whole run rather than its first second.
constexpr double kSetupEverySeconds = 3.0;
// Verdict pattern of the suite (qflow_synth.hpp): both methods fail the two
// heavy-noise CSDs, the baseline also misses CSD 7's faint steep line.
constexpr int kFastFailures[] = {1, 2};
constexpr int kBaselineFailures[] = {1, 2, 7};
// The paper's Table 1 speedup band.
constexpr double kPaperSpeedupLo = 5.84;
constexpr double kPaperSpeedupHi = 19.34;

bool same_report(const ExtractionReport& a, const ExtractionReport& b) {
  return a.status == b.status && a.virtual_gates == b.virtual_gates &&
         a.slope_steep == b.slope_steep && a.slope_shallow == b.slope_shallow &&
         a.stats.unique_probes == b.stats.unique_probes &&
         a.stats.total_requests == b.stats.total_requests &&
         a.stats.simulated_seconds == b.stats.simulated_seconds &&
         a.verdict == b.verdict;
}

}  // namespace

Outcome run_table1_playback(const RunConfig& config) {
  Outcome outcome;

  // Set-up: the suite build (12 jittered devices, each rastered once).
  std::vector<double> setup_s;
  auto timed_build = [&] {
    const Clock::time_point t0 = Clock::now();
    std::vector<QflowBenchmark> built = build_qflow_suite();
    setup_s.push_back(seconds_between(t0, Clock::now()));
    return built;
  };
  const std::vector<QflowBenchmark> suite = timed_build();

  std::vector<ExtractionRequest> requests;
  std::vector<int> csd_index;
  for (const QflowBenchmark& benchmark : suite) {
    for (const auto method :
         {ExtractionMethod::kFast, ExtractionMethod::kHoughBaseline}) {
      ExtractionRequest request;
      request.method = method;
      request.playback.csd = &benchmark.csd;
      request.label = benchmark.name();
      requests.push_back(std::move(request));
      csd_index.push_back(benchmark.spec.index);
    }
  }
  const std::size_t n = requests.size();
  const ExtractionEngine engine;

  // Reference pass and the paper-shape gate.
  std::vector<ExtractionReport> reference(n);
  for (std::size_t i = 0; i < n; ++i) reference[i] = engine.run(requests[i]);
  std::vector<int> fast_failed, base_failed;
  std::vector<double> speedups;
  WorkloadCost cost;
  int successes = 0;
  for (std::size_t i = 0; i < n; i += 2) {
    const ExtractionReport& fast = reference[i];
    const ExtractionReport& base = reference[i + 1];
    if (!fast.verdict.success) fast_failed.push_back(csd_index[i]);
    if (!base.verdict.success) base_failed.push_back(csd_index[i]);
    if (fast.verdict.success && base.verdict.success)
      speedups.push_back(base.stats.simulated_seconds /
                         fast.stats.simulated_seconds);
  }
  for (const ExtractionReport& r : reference) {
    cost.sim_s_per_job += r.stats.simulated_seconds / static_cast<double>(n);
    cost.probes_per_job +=
        static_cast<double>(r.stats.unique_probes) / static_cast<double>(n);
    successes += r.verdict.success ? 1 : 0;
  }
  cost.success_fraction = static_cast<double>(successes) / static_cast<double>(n);
  cost.speedup_vs_baseline = percentile(speedups, 0.5);
  const auto [min_speedup, max_speedup] =
      std::minmax_element(speedups.begin(), speedups.end());
  const bool shape_ok =
      std::equal(fast_failed.begin(), fast_failed.end(),
                 std::begin(kFastFailures), std::end(kFastFailures)) &&
      std::equal(base_failed.begin(), base_failed.end(),
                 std::begin(kBaselineFailures), std::end(kBaselineFailures)) &&
      !speedups.empty() && *min_speedup > 1.0 &&
      cost.speedup_vs_baseline >= kPaperSpeedupLo &&
      cost.speedup_vs_baseline <= kPaperSpeedupHi;
  char note[200];
  std::snprintf(note, sizeof note,
                "paper shape %s: fast %zu/12, baseline %zu/12, speedup "
                "median %.2fx (%.2fx-%.2fx over %zu CSDs)",
                shape_ok ? "ok" : "MISMATCH", 12 - fast_failed.size(),
                12 - base_failed.size(), cost.speedup_vs_baseline,
                speedups.empty() ? 0.0 : *min_speedup,
                speedups.empty() ? 0.0 : *max_speedup, speedups.size());
  outcome.notes.push_back(note);
  outcome.correct = shape_ok;

  Rng order_rng(derive_seed(config.seed, 0));
  std::vector<std::uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);

  // One untraced pass: every job through ExtractionEngine::run.
  Window untraced;
  auto untraced_pass = [&] {
    for (const std::uint32_t i : order) {
      const Clock::time_point t0 = Clock::now();
      const ExtractionReport report = engine.run(requests[i]);
      untraced.record(i, t0, Clock::now());
      ++untraced.attempted;
      if (!same_report(report, reference[i])) ++untraced.failed;
    }
    return 0.0;
  };

  // One traced pass: the fast jobs through the stage rebuild, the baseline
  // jobs through acquire_full_csd + analyze_csd_with_hough, each checked
  // against the reference. The imgproc split of each baseline analysis is
  // timed right after its job, outside the job's span; the pass returns
  // that extra time so it stays out of the traced throughput.
  Window traced;
  traced.origin = untraced.origin;
  FastTrace fast_total;
  double playback_s = 0.0, raster_s = 0.0, analyze_s = 0.0;
  double canny_s = 0.0, hough_s = 0.0;
  double self_s = 0.0, wall_s = 0.0;
  long fast_jobs = 0, base_jobs = 0;
  std::vector<std::vector<double>> stage_by_input(n);
  auto traced_pass = [&] {
    double split_s = 0.0;
    for (const std::uint32_t i : order) {
      const ExtractionRequest& request = requests[i];
      const Csd& csd = *request.playback.csd;
      bool same = false;
      double stage = 0.0;
      const Clock::time_point t0 = Clock::now();
      CsdPlayback playback(csd, request.playback.dwell_seconds);
      TimedSource timed(playback);
      if (request.method == ExtractionMethod::kFast) {
        FastTrace trace;
        const FastOutcome out =
            traced_fast_extraction(timed, csd.x_axis(), csd.y_axis(),
                                   request.fast, AcquisitionContext{}, trace);
        const Clock::time_point t1 = Clock::now();
        traced.record(i, t0, t1);
        wall_s += seconds_between(t0, t1);
        stage = trace.stage_sum();
        fast_total += trace;
        ++fast_jobs;
        same = same_fast_outcome(out, reference[i]) &&
               judge_extraction(out.status.ok(), out.gates, *csd.truth(),
                                request.verdict) == reference[i].verdict;
      } else {
        const Csd acquired =
            acquire_full_csd(timed, csd.x_axis(), csd.y_axis());
        const Clock::time_point r1 = Clock::now();
        const HoughBaselineResult result =
            analyze_csd_with_hough(acquired, request.hough);
        const Clock::time_point t1 = Clock::now();
        traced.record(i, t0, t1);
        wall_s += seconds_between(t0, t1);
        raster_s += seconds_between(t0, r1);
        analyze_s += seconds_between(r1, t1);
        stage = seconds_between(t0, t1);
        ++base_jobs;
        const ExtractionReport& ref = reference[i];
        same = result.status == ref.status &&
               result.virtual_gates == ref.virtual_gates &&
               result.slope_steep == ref.slope_steep &&
               result.slope_shallow == ref.slope_shallow &&
               playback.probe_count() == ref.stats.unique_probes &&
               playback.clock().elapsed_seconds() ==
                   ref.stats.simulated_seconds;
        const Clock::time_point c0 = Clock::now();
        const GridU8 edges =
            canny(normalize01(acquired.grid()), request.hough.canny);
        const Clock::time_point c1 = Clock::now();
        const std::vector<HoughLine> lines =
            hough_lines(edges, request.hough.hough);
        const Clock::time_point c2 = Clock::now();
        canny_s += seconds_between(c0, c1);
        hough_s += seconds_between(c1, c2);
        split_s += seconds_between(t1, c2);
        same = same && lines.size() == result.lines.size();
      }
      playback_s += timed.seconds();
      self_s += stage;
      stage_by_input[i].push_back(1e3 * stage);
      ++traced.attempted;
      if (!same) ++traced.failed;
    }
    return split_s;
  };

  // Closed loop of whole passes. A traced run alternates untraced and
  // traced passes, so both phases see the same host conditions.
  auto timed_pass = [&](Window& window, auto&& pass) {
    std::shuffle(order.begin(), order.end(), order_rng);
    const double cpu0 = process_cpu_seconds();
    const Clock::time_point t0 = Clock::now();
    const double excluded = pass();
    window.active_seconds += seconds_between(t0, Clock::now()) - excluded;
    window.cpu_seconds += process_cpu_seconds() - cpu0;
  };
  const double budget = config.trace ? 2.0 * config.seconds : config.seconds;
  Clock::time_point last_setup = Clock::now();
  while (seconds_between(untraced.origin, Clock::now()) < budget) {
    timed_pass(untraced, untraced_pass);
    if (config.trace) timed_pass(traced, traced_pass);
    if (seconds_between(last_setup, Clock::now()) >= kSetupEverySeconds) {
      (void)timed_build();
      last_setup = Clock::now();
    }
  }
  outcome.attempted = untraced.attempted + traced.attempted;
  outcome.failed = untraced.failed + traced.failed;

  if (!config.trace) {
    outcome.metrics = end_to_end_metrics(setup_s, untraced, cost);
    outcome.phases.emplace_back("untraced", std::move(untraced));
    return outcome;
  }


  LayerValues v;
  const auto fast = static_cast<double>(std::max(fast_jobs, 1L));
  const auto base = static_cast<double>(std::max(base_jobs, 1L));
  const auto jobs = static_cast<double>(std::max(fast_jobs + base_jobs, 1L));
  v["dataset.build_suite_s"] = percentile(setup_s, 0.5);
  v["probe.playback_ms_per_job"] = 1e3 * playback_s / jobs;
  v["probe.raster_ms"] = 1e3 * raster_s / base;
  add_fast_trace(v, fast_total, fast);
  v["extraction.baseline_analyze_ms"] = 1e3 * analyze_s / base;
  v["imgproc.canny_ms"] = 1e3 * canny_s / base;
  v["imgproc.hough_ms"] = 1e3 * hough_s / base;
  v["service.engine_ms"] = mean(untraced.latencies_ms());
  v["service.engine_overhead_ms"] =
      engine_overhead_ms(untraced.latencies_ms_by_input(n), stage_by_input);
  v["trace.accounted_fraction"] = wall_s > 0.0 ? self_s / wall_s : 0.0;
  v["trace.overhead_fraction"] =
      1.0 - traced.jobs_per_s() / untraced.jobs_per_s();
  outcome.metrics = per_layer_metrics(v);
  outcome.phases.emplace_back("untraced", std::move(untraced));
  outcome.phases.emplace_back("traced", std::move(traced));
  return outcome;
}

}  // namespace perfbench
