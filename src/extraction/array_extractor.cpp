#include "extraction/array_extractor.hpp"

#include "common/assert.hpp"
#include "common/thread_pool.hpp"

#include <cmath>
#include <memory>
#include <string>
#include <utility>

namespace qvg {

PairExtraction extract_array_pair(const BuiltDevice& device,
                                  const ArrayExtractionOptions& opt,
                                  std::size_t pair_index,
                                  const AcquisitionContext& context) {
  PairExtraction pair;
  pair.pair_index = pair_index;
  // Checked before the pair starts: a job cancelled while earlier pairs ran
  // skips this one outright (zero probes) with the typed Status.
  if (Status interrupt = context.check("array"); !interrupt.ok()) {
    pair.status = std::move(interrupt);
    return pair;
  }

  DeviceSimulator sim = make_pair_simulator(
      device, pair_index, opt.noise_seed + pair_index, opt.dwell_seconds);
  if (opt.white_noise_sigma > 0.0)
    sim.add_noise(std::make_unique<WhiteNoise>(opt.white_noise_sigma));
  const VoltageAxis axis = scan_axis(device, opt.pixels_per_axis);

  if (opt.method == ExtractionMethod::kFast) {
    const auto extraction =
        run_fast_extraction(sim, axis, axis, opt.fast, context);
    pair.status = extraction.status;
    pair.gates = extraction.virtual_gates;
    pair.stats = extraction.stats;
  } else {
    const auto extraction =
        run_hough_baseline(sim, axis, axis, opt.baseline, context);
    pair.status = extraction.status;
    pair.gates = extraction.virtual_gates;
    pair.stats = extraction.stats;
  }
  pair.verdict = judge_extraction(pair.status.ok(), pair.gates, sim.truth(),
                                  opt.verdict);
  return pair;
}

std::vector<std::vector<std::size_t>> plan_array_shards(std::size_t pair_count,
                                                        std::size_t shards) {
  if (shards == 0 || shards > pair_count) shards = pair_count;
  std::vector<std::vector<std::size_t>> plan(shards);
  for (std::size_t p = 0; p < pair_count; ++p)
    plan[p % shards].push_back(p);
  return plan;
}

ArrayExtractionResult compose_array_result(const BuiltDevice& device,
                                           std::vector<PairExtraction> pairs,
                                           std::size_t shards) {
  const std::size_t n = device.model.num_dots();
  QVG_EXPECTS(n >= 2);
  QVG_EXPECTS(pairs.size() == n - 1);

  ArrayExtractionResult result;
  result.pairs = std::move(pairs);
  result.matrix = Matrix::identity(n);

  // Per-shard bookkeeping from the same deterministic plan the walk ran.
  const auto plan = plan_array_shards(result.pairs.size(), shards);
  result.shards.resize(plan.size());
  for (std::size_t s = 0; s < plan.size(); ++s) {
    ArrayShardStats& shard = result.shards[s];
    shard.shard_index = s;
    shard.pair_indices = plan[s];
    for (const std::size_t p : plan[s]) {
      const ProbeStats& stats = result.pairs[p].stats;
      shard.stats.unique_probes += stats.unique_probes;
      shard.stats.total_requests += stats.total_requests;
      shard.stats.simulated_seconds += stats.simulated_seconds;
      shard.stats.compute_seconds += stats.compute_seconds;
    }
  }

  // Reference: nearest-neighbour band of the exact compensation matrix.
  result.reference = device.model.ideal_virtualization();

  // Compose the matrix and totals in pair order (deterministic regardless of
  // how the pair extractions were scheduled).
  std::size_t failed = 0;
  for (const auto& pair : result.pairs) {
    result.total_stats.unique_probes += pair.stats.unique_probes;
    result.total_stats.total_requests += pair.stats.total_requests;
    result.total_stats.simulated_seconds += pair.stats.simulated_seconds;
    result.total_stats.compute_seconds += pair.stats.compute_seconds;

    if (pair.status.ok()) {
      result.matrix(pair.pair_index, pair.pair_index + 1) = pair.gates.alpha12;
      result.matrix(pair.pair_index + 1, pair.pair_index) = pair.gates.alpha21;
    } else {
      ++failed;
    }
  }

  // Band error vs the reference compensation matrix.
  double worst = 0.0;
  for (std::size_t i = 0; i + 1 < n; ++i) {
    worst = std::max(worst, std::abs(result.matrix(i, i + 1) -
                                     result.reference(i, i + 1)));
    worst = std::max(worst, std::abs(result.matrix(i + 1, i) -
                                     result.reference(i + 1, i)));
  }
  result.band_max_error = worst;
  // An interrupted pair dominates the composed status: the array job itself
  // was cancelled / expired, which is not an ordinary pair failure.
  for (const auto& pair : result.pairs) {
    if (pair.status.code() == ErrorCode::kCancelled ||
        pair.status.code() == ErrorCode::kDeadlineExceeded ||
        pair.status.code() == ErrorCode::kBudgetExhausted) {
      result.status = Status::failure(pair.status.code(), "array",
                                      "interrupted at pair " +
                                          std::to_string(pair.pair_index) +
                                          " (" + pair.status.message() + ")");
      return result;
    }
  }
  if (failed > 0) {
    result.status = Status::failure(
        ErrorCode::kPairFailed, "array",
        std::to_string(failed) + " of " + std::to_string(n - 1) +
            " pair extractions failed");
  }
  return result;
}

ArrayExtractionResult extract_array_virtualization(
    const BuiltDevice& device, const ArrayExtractionOptions& opt,
    const AcquisitionContext& context) {
  const std::size_t n = device.model.num_dots();
  QVG_EXPECTS(n >= 2);
  QVG_EXPECTS(opt.pixels_per_axis >= 16);

  // The paper's n-1 sequential pair extractions are independent given their
  // per-pair simulators, so they shard out over the pool: each shard runs
  // its pairs serially, shards run concurrently, and every pair writes only
  // its own preallocated slot — no mutable state (simulator, ProbeCache,
  // noise stream) crosses a shard boundary, so the hot probe path never
  // contends on a lock. The shared context stops every pair at its next
  // batch boundary (a probe budget applies per pair, since each pair drives
  // its own simulator and cache).
  const auto plan = plan_array_shards(n - 1, opt.shards);
  std::vector<PairExtraction> pairs(n - 1);
  auto run_shards = [&](std::size_t lo, std::size_t hi) {
    for (std::size_t s = lo; s < hi; ++s)
      for (const std::size_t pair_index : plan[s])
        pairs[pair_index] =
            extract_array_pair(device, opt, pair_index, context);
  };
  if (opt.parallel)
    parallel_for_rows(plan.size(), run_shards, 1);
  else
    run_shards(0, plan.size());

  return compose_array_result(device, std::move(pairs), opt.shards);
}

}  // namespace qvg
