#include "extraction/array_extractor.hpp"

#include "test_support.hpp"

#include <gtest/gtest.h>

namespace qvg {
namespace {

const bool g_force_threads = testsupport::force_multithread_pool();

BuiltDevice array_device(std::size_t n_dots, std::uint64_t seed = 2) {
  DotArrayParams params;
  params.n_dots = n_dots;
  params.jitter = 0.04;
  Rng rng(seed);
  return build_dot_array(params, &rng);
}

TEST(ArrayExtractorTest, DoubleDotSinglePair) {
  const BuiltDevice device = array_device(2);
  ArrayExtractionOptions opt;
  const auto result = extract_array_virtualization(device, opt);
  ASSERT_EQ(result.pairs.size(), 1u);
  EXPECT_TRUE(result.status.ok()) << result.pairs[0].status.message();
  EXPECT_EQ(result.matrix.rows(), 2u);
  EXPECT_LT(result.band_max_error, 0.06);
}

TEST(ArrayExtractorTest, QuadDotNeedsThreePairs) {
  // The paper's Figure 1 device: 4 dots -> n-1 = 3 sequential extractions.
  const BuiltDevice device = array_device(4);
  ArrayExtractionOptions opt;
  opt.pixels_per_axis = 80;
  const auto result = extract_array_virtualization(device, opt);
  ASSERT_EQ(result.pairs.size(), 3u);
  EXPECT_TRUE(result.status.ok());
  EXPECT_EQ(result.matrix.rows(), 4u);

  // Band entries populated, off-band zero, diagonal 1.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(result.matrix(i, i), 1.0);
    for (std::size_t j = 0; j < 4; ++j) {
      const auto dist = i > j ? i - j : j - i;
      if (dist > 1) EXPECT_DOUBLE_EQ(result.matrix(i, j), 0.0);
      if (dist == 1) EXPECT_GT(result.matrix(i, j), 0.0);
    }
  }
  EXPECT_LT(result.band_max_error, 0.08);
}

TEST(ArrayExtractorTest, MatchesReferenceWithinTolerance) {
  const BuiltDevice device = array_device(3, 9);
  const auto result = extract_array_virtualization(device);
  ASSERT_TRUE(result.status.ok());
  for (std::size_t i = 0; i + 1 < 3; ++i) {
    EXPECT_NEAR(result.matrix(i, i + 1), result.reference(i, i + 1), 0.06);
    EXPECT_NEAR(result.matrix(i + 1, i), result.reference(i + 1, i), 0.06);
  }
}

TEST(ArrayExtractorTest, StatsAccumulateAcrossPairs) {
  const BuiltDevice device = array_device(3);
  const auto result = extract_array_virtualization(device);
  long sum = 0;
  for (const auto& pair : result.pairs) sum += pair.stats.unique_probes;
  EXPECT_EQ(result.total_stats.unique_probes, sum);
  EXPECT_GT(result.total_stats.simulated_seconds, 0.0);
}

TEST(ArrayExtractorTest, BaselineMethodAlsoWorks) {
  const BuiltDevice device = array_device(2, 4);
  ArrayExtractionOptions opt;
  opt.method = ExtractionMethod::kHoughBaseline;
  opt.pixels_per_axis = 64;
  const auto result = extract_array_virtualization(device, opt);
  ASSERT_EQ(result.pairs.size(), 1u);
  EXPECT_TRUE(result.status.ok()) << result.pairs[0].status.message();
  // Full raster per pair.
  EXPECT_EQ(result.total_stats.unique_probes, 64 * 64);
}

TEST(ArrayExtractorTest, FastUsesFarFewerProbesThanBaseline) {
  const BuiltDevice device = array_device(3, 6);
  ArrayExtractionOptions fast_opt;
  fast_opt.pixels_per_axis = 80;
  const auto fast = extract_array_virtualization(device, fast_opt);
  ArrayExtractionOptions base_opt;
  base_opt.method = ExtractionMethod::kHoughBaseline;
  base_opt.pixels_per_axis = 80;
  const auto base = extract_array_virtualization(device, base_opt);
  ASSERT_TRUE(fast.status.ok());
  EXPECT_LT(fast.total_stats.unique_probes,
            base.total_stats.unique_probes / 4);
}

TEST(ArrayExtractorTest, NoisyPairReportsVerdicts) {
  const BuiltDevice device = array_device(3, 8);
  ArrayExtractionOptions opt;
  opt.white_noise_sigma = 0.03;
  const auto result = extract_array_virtualization(device, opt);
  for (const auto& pair : result.pairs) {
    if (pair.status.ok()) {
      EXPECT_TRUE(pair.verdict.success) << pair.verdict.reason;
    }
  }
}

TEST(ArrayExtractorTest, ParallelMatchesSerialBitIdentically) {
  // Each pair owns its simulator and derives its noise seed from its index,
  // and slots are composed in pair order, so the parallel fan-out must
  // reproduce the serial walk exactly (compute_seconds excepted: wall time).
  const BuiltDevice device = array_device(4, 12);
  ArrayExtractionOptions serial_opt;
  serial_opt.pixels_per_axis = 64;
  serial_opt.white_noise_sigma = 0.01;
  serial_opt.parallel = false;
  ArrayExtractionOptions parallel_opt = serial_opt;
  parallel_opt.parallel = true;

  const auto serial = extract_array_virtualization(device, serial_opt);
  const auto parallel = extract_array_virtualization(device, parallel_opt);

  EXPECT_EQ(serial.status, parallel.status);
  EXPECT_EQ(serial.band_max_error, parallel.band_max_error);
  ASSERT_EQ(serial.pairs.size(), parallel.pairs.size());
  for (std::size_t i = 0; i < serial.pairs.size(); ++i) {
    const auto& s = serial.pairs[i];
    const auto& p = parallel.pairs[i];
    EXPECT_EQ(s.pair_index, p.pair_index);
    EXPECT_EQ(s.status, p.status);
    EXPECT_EQ(s.gates.alpha12, p.gates.alpha12);
    EXPECT_EQ(s.gates.alpha21, p.gates.alpha21);
    EXPECT_EQ(s.stats.unique_probes, p.stats.unique_probes);
    EXPECT_EQ(s.stats.total_requests, p.stats.total_requests);
    EXPECT_EQ(s.stats.simulated_seconds, p.stats.simulated_seconds);
    EXPECT_EQ(s.verdict.success, p.verdict.success);
  }
  for (std::size_t i = 0; i < serial.matrix.rows(); ++i)
    for (std::size_t j = 0; j < serial.matrix.cols(); ++j)
      EXPECT_EQ(serial.matrix(i, j), parallel.matrix(i, j))
          << "entry (" << i << ", " << j << ")";
}

TEST(ArrayExtractorTest, SixDotArrayUsesBranchAndBoundTractably) {
  // 6 dots sit above the old exhaustive_dot_limit of 5: the raised limit
  // plus branch-and-bound keeps per-pixel solves exact at this size.
  const BuiltDevice device = array_device(6, 21);
  ArrayExtractionOptions opt;
  opt.pixels_per_axis = 48;
  const auto result = extract_array_virtualization(device, opt);
  ASSERT_EQ(result.pairs.size(), 5u);
  for (const auto& pair : result.pairs)
    EXPECT_GT(pair.stats.unique_probes, 0);
}

TEST(ArrayExtractorTest, ValidatesInput) {
  const BuiltDevice device = array_device(2);
  ArrayExtractionOptions opt;
  opt.pixels_per_axis = 4;
  EXPECT_THROW(extract_array_virtualization(device, opt), ContractViolation);
}

TEST(ArrayShardTest, PlanPartitionsPairsRoundRobin) {
  // 7 pairs over 3 shards: round-robin assignment, every pair exactly once.
  const auto plan = plan_array_shards(7, 3);
  ASSERT_EQ(plan.size(), 3u);
  EXPECT_EQ(plan[0], (std::vector<std::size_t>{0, 3, 6}));
  EXPECT_EQ(plan[1], (std::vector<std::size_t>{1, 4}));
  EXPECT_EQ(plan[2], (std::vector<std::size_t>{2, 5}));
  // 0 and oversubscribed counts normalize to one shard per pair.
  EXPECT_EQ(plan_array_shards(5, 0).size(), 5u);
  EXPECT_EQ(plan_array_shards(5, 9).size(), 5u);
}

void expect_identical_arrays(const ArrayExtractionResult& a,
                             const ArrayExtractionResult& b) {
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.band_max_error, b.band_max_error);
  ASSERT_EQ(a.pairs.size(), b.pairs.size());
  for (std::size_t i = 0; i < a.pairs.size(); ++i) {
    EXPECT_EQ(a.pairs[i].status, b.pairs[i].status);
    EXPECT_EQ(a.pairs[i].gates.alpha12, b.pairs[i].gates.alpha12);
    EXPECT_EQ(a.pairs[i].gates.alpha21, b.pairs[i].gates.alpha21);
    EXPECT_EQ(a.pairs[i].stats.unique_probes, b.pairs[i].stats.unique_probes);
    EXPECT_EQ(a.pairs[i].stats.simulated_seconds,
              b.pairs[i].stats.simulated_seconds);
  }
  for (std::size_t i = 0; i < a.matrix.rows(); ++i)
    for (std::size_t j = 0; j < a.matrix.cols(); ++j)
      EXPECT_EQ(a.matrix(i, j), b.matrix(i, j))
          << "entry (" << i << ", " << j << ")";
}

TEST(ArrayShardTest, ShardedTenDotExtractionIsBitIdenticalToSerial) {
  // 10 dots is above the exhaustive dot limit: every pixel goes through the
  // dominance pre-pass. The shard plan must not leak into results —
  // serial, one-shard-per-pair, and 4-shard runs compose bit-identically.
  const BuiltDevice device = array_device(10, 33);
  ArrayExtractionOptions serial_opt;
  serial_opt.pixels_per_axis = 24;
  serial_opt.parallel = false;
  serial_opt.shards = 1;
  const auto serial = extract_array_virtualization(device, serial_opt);
  ASSERT_EQ(serial.pairs.size(), 9u);

  for (const std::size_t shards : {std::size_t{0}, std::size_t{4}}) {
    ArrayExtractionOptions opt = serial_opt;
    opt.parallel = true;
    opt.shards = shards;
    const auto sharded = extract_array_virtualization(device, opt);
    expect_identical_arrays(serial, sharded);
    // Per-shard stats partition the pairs: every pair in exactly one shard,
    // stats summing to the total.
    const std::size_t expect_shards = shards == 0 ? 9u : shards;
    ASSERT_EQ(sharded.shards.size(), expect_shards);
    std::vector<bool> seen(9, false);
    long probes = 0;
    for (const auto& shard : sharded.shards) {
      for (const std::size_t p : shard.pair_indices) {
        EXPECT_FALSE(seen[p]);
        seen[p] = true;
      }
      probes += shard.stats.unique_probes;
    }
    for (const bool s : seen) EXPECT_TRUE(s);
    EXPECT_EQ(probes, sharded.total_stats.unique_probes);
  }
}

TEST(ArrayShardTest, FrontierStrategyOptionReachesThePairSolvers) {
  // Each pair's simulator takes the strategy, but a pair scan rests every
  // other plunger at its base voltage, so at most the two scanned dots are
  // active and the dominance pre-pass solves every probe exactly: anneal
  // and tabu walks must produce the same, self-consistent composition.
  const BuiltDevice device = array_device(10, 34);
  std::vector<ArrayExtractionResult> results;
  for (const FrontierStrategy strategy :
       {FrontierStrategy::kAnneal, FrontierStrategy::kTabu}) {
    ArrayExtractionOptions opt;
    opt.pixels_per_axis = 24;
    opt.shards = 3;
    opt.frontier = strategy;
    results.push_back(extract_array_virtualization(device, opt));
    ASSERT_EQ(results.back().pairs.size(), 9u);
    for (const auto& pair : results.back().pairs)
      EXPECT_GT(pair.stats.unique_probes, 0);
  }
  expect_identical_arrays(results[0], results[1]);
}

}  // namespace
}  // namespace qvg
