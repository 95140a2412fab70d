// N-dot array virtualization (paper §2.3): "The virtual gate extraction can
// be extended to an n-dot array by sequentially applying it to every pair of
// nearby plunger gates, and n-1 sequentially executed extraction processes
// are needed." This module walks the nearest-neighbour plunger pairs of a
// simulated linear array, runs the chosen extraction method on each pair,
// and composes the full n x n virtualization matrix.
#pragma once

#include "common/status.hpp"
#include "device/dot_array.hpp"
#include "extraction/fast_extractor.hpp"
#include "extraction/hough_baseline.hpp"
#include "extraction/success.hpp"
#include "probe/acquisition_context.hpp"

#include <cstdint>
#include <vector>

namespace qvg {

enum class ExtractionMethod { kFast, kHoughBaseline };

struct ArrayExtractionOptions {
  ExtractionMethod method = ExtractionMethod::kFast;
  std::size_t pixels_per_axis = 100;
  double dwell_seconds = 0.050;
  std::uint64_t noise_seed = 42;
  /// White-noise sigma added to each pair scan (sensor current units).
  double white_noise_sigma = 0.0;
  /// Run the n-1 pair extractions concurrently on the global ThreadPool.
  /// Each pair owns its simulator and derives its noise seed from its index,
  /// and results are composed in pair order afterwards, so the output is
  /// bit-identical to the serial walk regardless of thread count.
  bool parallel = true;
  /// Shard the n-1 pair extractions for parallel execution: pairs are
  /// assigned round-robin (pair p -> shard p % shards), shards run
  /// concurrently on the ThreadPool, and each shard walks its own pairs
  /// serially — every pair still owns its simulator and ProbeCache, so
  /// shards share no mutable state and the hot probe path has no cross-shard
  /// lock contention. 0 = one shard per pair (the pre-shard fan-out).
  /// Pair outputs never depend on the shard plan; only the per-shard stats
  /// grouping does. Bit-identical to the serial walk for every shard count.
  std::size_t shards = 0;
  /// Read by nothing in src/; kept so perfbench builds unedited. ROADMAP
  /// item 4's benchmark PR deletes it.
  FrontierStrategy frontier = FrontierStrategy::kCappedBranchAndBound;
  FastExtractorOptions fast;
  HoughBaselineOptions baseline;
  VerdictOptions verdict;
};

struct PairExtraction {
  std::size_t pair_index = 0;
  /// The pair's own extraction status (the method's internal outcome).
  Status status;
  VirtualGatePair gates;
  Verdict verdict;
  ProbeStats stats;
};

/// Deterministic per-shard bookkeeping composed alongside the array result:
/// which pairs the shard ran and their summed ProbeStats. A function of
/// (pair results, shard count) only — independent of scheduling — so
/// engine-batched, parallel, and serial walks report identical shards.
struct ArrayShardStats {
  std::size_t shard_index = 0;
  std::vector<std::size_t> pair_indices;
  /// ProbeStats summed over the shard's pairs in pair order.
  ProbeStats stats;
};

struct ArrayExtractionResult {
  /// ok() when every pair succeeded; kPairFailed otherwise, with the failed
  /// pair count in the detail.
  Status status;
  std::vector<PairExtraction> pairs;
  /// One entry per shard of the executed plan (see
  /// ArrayExtractionOptions::shards).
  std::vector<ArrayShardStats> shards;
  /// Composed n x n virtualization matrix (identity entries where a pair
  /// failed).
  Matrix matrix;
  /// Nearest-neighbour reference matrix from the device's lever arms.
  Matrix reference;
  /// Max absolute error over the nearest-neighbour band vs the reference.
  double band_max_error = 0.0;
  /// Per-pair ProbeStats summed in pair order: unique probes, raw requests,
  /// simulated dwell seconds, and compute seconds across the whole array.
  ProbeStats total_stats;
};

/// Extract virtual gates for every nearest-neighbour pair of the array. The
/// context is shared by every pair: a cancelled or expired job stops each
/// still-running pair at its next batch boundary and the composed result
/// carries the interruption Status.
[[nodiscard]] ArrayExtractionResult extract_array_virtualization(
    const BuiltDevice& device, const ArrayExtractionOptions& options = {},
    const AcquisitionContext& context = {});

/// Run ONE pair extraction of the array walk. Self-contained and
/// deterministic: the pair's simulator is built from `pair_index` (own noise
/// stream seeded opt.noise_seed + pair_index, own probe cache), so calls for
/// different pairs never share mutable state. This is the unit the service
/// layer fans out. The context is checked before the pair starts and
/// threaded through its extraction.
[[nodiscard]] PairExtraction extract_array_pair(
    const BuiltDevice& device, const ArrayExtractionOptions& options,
    std::size_t pair_index, const AcquisitionContext& context = {});

/// The shard plan: pair p runs in shard p % shard_count. shards == 0 or
/// shards > pair_count normalizes to one shard per pair. Round-robin keeps
/// the per-shard cost balanced when extraction cost drifts along the array.
[[nodiscard]] std::vector<std::vector<std::size_t>> plan_array_shards(
    std::size_t pair_count, std::size_t shards);

/// Compose per-pair extractions (in pair order) into the full array result:
/// n x n matrix, reference band, band error, summed ProbeStats, per-shard
/// stats for the given shard count, and overall status. Deterministic given
/// (pairs, shards), so serial, parallel, and engine-batched walks compose
/// bit-identically.
[[nodiscard]] ArrayExtractionResult compose_array_result(
    const BuiltDevice& device, std::vector<PairExtraction> pairs,
    std::size_t shards = 0);

}  // namespace qvg
