// array_frontier_16dot: ExtractionEngine::run_array on 16-dot linear
// arrays — 15 nearest-neighbour pairs at 32 px, sharded on the pool, with
// the anneal frontier search (above the 7-dot exhaustive limit) solving
// every probe. The arrays are a fixed jittered set (like the qflow suite,
// their verdict mix is part of the workload's identity); the run seed
// drives each pair's noise seed — from which the simulator derives its
// anneal seed — and the serving order.
#include "workloads.hpp"

#include "common/random.hpp"
#include "common/thread_pool.hpp"
#include "device/dot_array.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

namespace perfbench {

using namespace qvg;

namespace {

constexpr std::size_t kDots = 16;
constexpr std::size_t kDevices = 4;
constexpr std::size_t kPixels = 32;
constexpr std::size_t kShards = 4;
constexpr double kJitter = 0.03;
// Jitter seed of the fixed array set.
constexpr std::uint64_t kArraySetSeed = 16;
constexpr int kSetupReps = 7;

bool same_stats(const ProbeStats& a, const ProbeStats& b) {
  return a.unique_probes == b.unique_probes &&
         a.total_requests == b.total_requests &&
         a.simulated_seconds == b.simulated_seconds;
}

/// Equality on every deterministic field (compute seconds and the
/// per-shard grouping, which depends on the shard plan, are excluded).
bool same_array(const ArrayExtractionResult& a, const ArrayExtractionResult& b) {
  if (!(a.status == b.status && a.matrix == b.matrix &&
        a.band_max_error == b.band_max_error &&
        same_stats(a.total_stats, b.total_stats) &&
        a.pairs.size() == b.pairs.size()))
    return false;
  for (std::size_t p = 0; p < a.pairs.size(); ++p) {
    const PairExtraction& x = a.pairs[p];
    const PairExtraction& y = b.pairs[p];
    if (!(x.pair_index == y.pair_index && x.status == y.status &&
          x.gates == y.gates && x.verdict == y.verdict &&
          same_stats(x.stats, y.stats)))
      return false;
  }
  return true;
}

/// What one traced pair recorded.
struct PairTrace {
  FastTrace fast;
  double device_s = 0.0;  // simulator construction + time in its calls
  long source_calls = 0;
  double self_s = 0.0;    // layer self-time sum of the pair
  double wall_s = 0.0;
};

}  // namespace

Outcome run_array_frontier_16dot(const RunConfig& config) {
  Outcome outcome;
  const ExtractionEngine engine;

  DotArrayParams params;
  params.n_dots = kDots;
  params.jitter = kJitter;
  std::vector<ArrayExtractionOptions> options(kDevices);
  for (std::size_t d = 0; d < kDevices; ++d) {
    options[d].pixels_per_axis = kPixels;
    options[d].shards = kShards;
    options[d].noise_seed = derive_seed(config.seed, 100 + d) >> 16;
  }

  // Set-up: build every jittered array, then warm the pool and the solver
  // with one array extraction.
  std::vector<double> setup_s, build_ms;
  std::vector<BuiltDevice> devices;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    devices.clear();
    const Clock::time_point t0 = Clock::now();
    for (std::size_t d = 0; d < kDevices; ++d) {
      const Clock::time_point b0 = Clock::now();
      Rng jitter(derive_seed(kArraySetSeed, d));
      devices.push_back(build_dot_array(params, &jitter));
      build_ms.push_back(1e3 * seconds_between(b0, Clock::now()));
    }
    (void)engine.run_array(devices[0], options[0]);
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }

  // Reference: the serial walk of every array (one shard, no pool).
  std::vector<ArrayExtractionResult> reference;
  for (std::size_t d = 0; d < kDevices; ++d) {
    ArrayExtractionOptions serial = options[d];
    serial.parallel = false;
    serial.shards = 1;
    reference.push_back(extract_array_virtualization(devices[d], serial));
  }

  // The full-raster baseline of a pair costs one dwell per pixel; check it
  // on one real baseline pair, then price every pair by it.
  ArrayExtractionOptions baseline = options[0];
  baseline.method = ExtractionMethod::kHoughBaseline;
  const PairExtraction raster_pair = extract_array_pair(devices[0], baseline, 0);
  const double raster_sim_s =
      static_cast<double>(kPixels * kPixels) * baseline.dwell_seconds;
  const bool raster_cost_ok =
      std::abs(raster_pair.stats.simulated_seconds - raster_sim_s) <=
      1e-9 * raster_sim_s;
  WorkloadCost cost;
  std::vector<double> speedups;
  long pairs_total = 0, pairs_ok = 0;
  for (const ArrayExtractionResult& r : reference) {
    cost.sim_s_per_job += r.total_stats.simulated_seconds / kDevices;
    cost.probes_per_job +=
        static_cast<double>(r.total_stats.unique_probes) / kDevices;
    for (const PairExtraction& pair : r.pairs) {
      ++pairs_total;
      if (!pair.verdict.success) continue;
      ++pairs_ok;
      speedups.push_back(raster_sim_s / pair.stats.simulated_seconds);
    }
  }
  cost.success_fraction =
      static_cast<double>(pairs_ok) / static_cast<double>(pairs_total);
  cost.speedup_vs_baseline = percentile(speedups, 0.5);
  char note[200];
  std::snprintf(note, sizeof note,
                "arrays: %zu x %zu dots, %ld/%ld pairs succeed, raster "
                "baseline cost %s (%.3f sim_s per pair)",
                kDevices, kDots, pairs_ok, pairs_total,
                raster_cost_ok ? "ok" : "MISMATCH",
                raster_pair.stats.simulated_seconds);
  outcome.notes.push_back(note);
  outcome.correct = raster_cost_ok && pairs_ok > 0;

  Window untraced;
  auto untraced_job = [&](std::uint32_t d) {
    const Clock::time_point t0 = Clock::now();
    const ArrayExtractionResult result = engine.run_array(devices[d], options[d]);
    const Clock::time_point t1 = Clock::now();
    untraced.record(d, t0, t1);
    ++untraced.attempted;
    if (!same_array(result, reference[d])) ++untraced.failed;
  };

  // A traced array: the engine's shard plan rebuilt on the pool, every pair
  // a timed simulator under the fast-extraction stage rebuild, then the
  // timed compose. The slowest shard plus compose is the blocking path.
  Window traced;
  traced.origin = untraced.origin;
  FastTrace fast_total;
  double device_s = 0.0, compose_s = 0.0, critical_s = 0.0, wall_s = 0.0;
  long source_calls = 0;
  std::vector<double> pair_ms, pair_max_ms;
  std::vector<std::vector<double>> critical_by_input(kDevices);
  auto traced_job = [&](std::uint32_t d) {
    const BuiltDevice& device = devices[d];
    const ArrayExtractionOptions& opt = options[d];
    const auto plan = plan_array_shards(kDots - 1, opt.shards);
    const VoltageAxis axis = scan_axis(device, opt.pixels_per_axis);
    std::vector<PairExtraction> pairs(kDots - 1);
    std::vector<PairTrace> traces(kDots - 1);
    std::vector<double> shard_s(plan.size());
    const Clock::time_point t0 = Clock::now();
    parallel_for_rows(
        plan.size(),
        [&](std::size_t lo, std::size_t hi) {
          for (std::size_t s = lo; s < hi; ++s) {
            const Clock::time_point s0 = Clock::now();
            for (const std::size_t p : plan[s]) {
              PairTrace& trace = traces[p];
              const Clock::time_point p0 = Clock::now();
              DeviceBackend backend;
              backend.device = &device;
              backend.pair_index = p;
              backend.noise_seed = opt.noise_seed + p;
              backend.dwell_seconds = opt.dwell_seconds;
              backend.white_noise_sigma = opt.white_noise_sigma;
              backend.frontier = opt.frontier;
              DeviceSimulator sim = backend_simulator(backend);
              const double build_s = seconds_between(p0, Clock::now());
              TimedSource timed(sim);
              const FastOutcome out =
                  traced_fast_extraction(timed, axis, axis, opt.fast,
                                         AcquisitionContext{}, trace.fast);
              PairExtraction& pair = pairs[p];
              pair.pair_index = p;
              pair.status = out.status;
              pair.gates = out.gates;
              pair.verdict = judge_extraction(out.status.ok(), out.gates,
                                              sim.truth(), opt.verdict);
              pair.stats = out.stats;
              trace.device_s = build_s + timed.seconds();
              trace.source_calls = timed.calls();
              trace.self_s = build_s + trace.fast.stage_sum();
              trace.wall_s = seconds_between(p0, Clock::now());
            }
            shard_s[s] = seconds_between(s0, Clock::now());
          }
        },
        1);
    const Clock::time_point c0 = Clock::now();
    const ArrayExtractionResult result =
        compose_array_result(device, std::move(pairs), opt.shards);
    const Clock::time_point t1 = Clock::now();
    traced.record(d, t0, t1);
    ++traced.attempted;
    if (!same_array(result, reference[d])) ++traced.failed;

    const std::size_t slowest = static_cast<std::size_t>(
        std::max_element(shard_s.begin(), shard_s.end()) - shard_s.begin());
    double critical = seconds_between(c0, t1);
    for (const std::size_t p : plan[slowest]) critical += traces[p].self_s;
    double max_ms = 0.0;
    for (const PairTrace& trace : traces) {
      fast_total += trace.fast;
      device_s += trace.device_s;
      source_calls += trace.source_calls;
      pair_ms.push_back(1e3 * trace.wall_s);
      max_ms = std::max(max_ms, 1e3 * trace.wall_s);
    }
    pair_max_ms.push_back(max_ms);
    compose_s += seconds_between(c0, t1);
    critical_s += critical;
    wall_s += seconds_between(t0, t1);
    critical_by_input[d].push_back(1e3 * critical);
  };

  // Closed loop over the arrays in a seeded order; a traced run alternates
  // untraced and traced arrays so both phases see the same host.
  Rng order_rng(derive_seed(config.seed, 200));
  std::vector<std::uint32_t> order(kDevices);
  std::iota(order.begin(), order.end(), 0u);
  auto timed_job = [&](Window& window, auto&& job, std::uint32_t d) {
    const double cpu0 = process_cpu_seconds();
    const Clock::time_point t0 = Clock::now();
    job(d);
    window.active_seconds += seconds_between(t0, Clock::now());
    window.cpu_seconds += process_cpu_seconds() - cpu0;
  };
  const double budget = config.trace ? 2.0 * config.seconds : config.seconds;
  while (seconds_between(untraced.origin, Clock::now()) < budget) {
    std::shuffle(order.begin(), order.end(), order_rng);
    for (const std::uint32_t d : order) {
      timed_job(untraced, untraced_job, d);
      if (config.trace) timed_job(traced, traced_job, d);
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
  const auto jobs = static_cast<double>(std::max(traced.attempted, 1L));
  v["device.build_ms"] = mean(build_ms);
  v["device.simulate_ms_per_job"] = 1e3 * device_s / jobs;
  v["device.source_calls_per_job"] = static_cast<double>(source_calls) / jobs;
  add_fast_trace(v, fast_total, jobs);
  v["extraction.pair_ms_p50"] = percentile(pair_ms, 0.5);
  v["extraction.pair_ms_max"] = percentile(pair_max_ms, 0.5);
  v["extraction.compose_ms"] = 1e3 * compose_s / jobs;
  v["service.engine_ms"] = mean(untraced.latencies_ms());
  v["service.engine_overhead_ms"] = engine_overhead_ms(
      untraced.latencies_ms_by_input(kDevices), critical_by_input);
  v["trace.accounted_fraction"] = wall_s > 0.0 ? critical_s / wall_s : 0.0;
  v["trace.overhead_fraction"] =
      1.0 - traced.jobs_per_s() / untraced.jobs_per_s();
  outcome.metrics = per_layer_metrics(v);
  outcome.phases.emplace_back("untraced", std::move(untraced));
  outcome.phases.emplace_back("traced", std::move(traced));
  return outcome;
}

}  // namespace perfbench
