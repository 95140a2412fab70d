// Cancellation, deadlines, and probe budgets at the probe/extraction layer:
// interruption happens between probe batches (never mid-batch), partial
// results stay well-defined, and a limited-but-never-fired context is
// bit-identical to the unlimited path.
#include "device/dot_array.hpp"
#include "extraction/anchors.hpp"
#include "extraction/array_extractor.hpp"
#include "extraction/fast_extractor.hpp"
#include "extraction/hough_baseline.hpp"
#include "probe/acquisition_context.hpp"
#include "probe/playback.hpp"
#include "probe/probe_cache.hpp"
#include "probe/raster.hpp"
#include "test_support.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <vector>

namespace qvg {
namespace {

using testsupport::SyntheticCsdSpec;
using testsupport::make_synthetic_csd;

const bool g_force_threads = testsupport::force_multithread_pool();

/// Forwarding source that fires a CancelToken once the inner source has
/// issued `cancel_after` probes. Probes route through the scalar
/// get_current, so the token fires exactly at the threshold — *inside* a
/// batch — which is what lets the tests pin "the batch in flight still
/// completes; the next boundary check stops the job".
class CancelAfterProbes final : public CurrentSource {
 public:
  CancelAfterProbes(CurrentSource& inner, CancelToken token, long cancel_after)
      : inner_(inner), token_(token), cancel_after_(cancel_after) {}

  double get_current(double v1, double v2) override {
    const double current = inner_.get_current(v1, v2);
    if (inner_.probe_count() >= cancel_after_) token_.cancel();
    return current;
  }
  [[nodiscard]] SimClock& clock() override { return inner_.clock(); }
  [[nodiscard]] const SimClock& clock() const override {
    return inner_.clock();
  }
  [[nodiscard]] long probe_count() const override {
    return inner_.probe_count();
  }

 private:
  CurrentSource& inner_;
  CancelToken token_;
  long cancel_after_;
};

AcquisitionContext cancellable_context() {
  AcquisitionContext context;
  context.cancel = CancelToken::make();
  return context;
}

TEST(AcquisitionContextTest, UnlimitedByDefault) {
  const AcquisitionContext context;
  EXPECT_FALSE(context.limited());
  EXPECT_TRUE(context.check("stage", 1'000'000'000L).ok());
}

TEST(AcquisitionContextTest, CancelledTokenReportsTypedStatus) {
  AcquisitionContext context = cancellable_context();
  EXPECT_TRUE(context.limited());
  EXPECT_TRUE(context.check("raster", 0).ok());
  context.cancel.cancel();
  const Status status = context.check("raster", 0);
  EXPECT_EQ(status.code(), ErrorCode::kCancelled);
  EXPECT_EQ(status.stage(), "raster");
}

TEST(AcquisitionContextTest, PastDeadlineAndBudgetReportDistinctCodes) {
  AcquisitionContext context;
  context.deadline = AcquisitionContext::Clock::now() -
                     std::chrono::milliseconds(1);
  EXPECT_EQ(context.check("sweeps", 0).code(), ErrorCode::kDeadlineExceeded);

  AcquisitionContext budget;
  budget.max_probes = 100;
  EXPECT_TRUE(budget.check("raster", 99).ok());
  const Status status = budget.check("raster", 100);
  EXPECT_EQ(status.code(), ErrorCode::kBudgetExhausted);
  EXPECT_NE(status.detail().find("probe budget"), std::string::npos);
}

TEST(RasterCancellationTest, LimitedContextAcquisitionIsBitIdentical) {
  // The limited context switches to row batches + per-row checks: on both
  // backends (noisy simulator, playback) the diagram, probe count, and clock
  // must match the single-batch path exactly.
  DotArrayParams params;
  params.n_dots = 2;
  const BuiltDevice device = build_dot_array(params);
  const VoltageAxis axis = scan_axis(device, 48);

  DeviceSimulator plain_sim = make_pair_simulator(device);
  plain_sim.add_noise(std::make_unique<WhiteNoise>(0.02));
  const Csd plain = acquire_full_csd(plain_sim, axis, axis);

  DeviceSimulator checked_sim = make_pair_simulator(device);
  checked_sim.add_noise(std::make_unique<WhiteNoise>(0.02));
  const Result<Csd> checked =
      acquire_full_csd(checked_sim, axis, axis, cancellable_context());
  ASSERT_TRUE(checked.ok());
  EXPECT_EQ(plain.grid(), checked->grid());
  EXPECT_EQ(plain_sim.probe_count(), checked_sim.probe_count());
  EXPECT_DOUBLE_EQ(plain_sim.clock().elapsed_seconds(),
                   checked_sim.clock().elapsed_seconds());

  const Csd recorded = make_synthetic_csd(SyntheticCsdSpec{.pixels = 48});
  CsdPlayback plain_playback(recorded);
  const Csd plain_replay = acquire_full_csd(plain_playback, axis, axis);
  CsdPlayback checked_playback(recorded);
  const Result<Csd> checked_replay =
      acquire_full_csd(checked_playback, axis, axis, cancellable_context());
  ASSERT_TRUE(checked_replay.ok());
  EXPECT_EQ(plain_replay.grid(), checked_replay->grid());
  EXPECT_EQ(plain_playback.probe_count(), checked_playback.probe_count());
}

TEST(RasterCancellationTest, CancelMidRasterStopsAtNextBatchBoundary) {
  // On a 64px scan the raster goes out in 8-row / 512-probe batches. The
  // token fires at probe 150, inside the first batch; that batch completes
  // (never mid-batch) and the boundary check stops the job: exactly 512
  // probes issued, well short of the 4096-pixel diagram.
  const Csd recorded = make_synthetic_csd(SyntheticCsdSpec{.pixels = 64});
  CsdPlayback playback(recorded);
  AcquisitionContext context = cancellable_context();
  CancelAfterProbes source(playback, context.cancel, 150);

  const Result<Csd> result =
      acquire_full_csd(source, recorded.x_axis(), recorded.y_axis(), context);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), ErrorCode::kCancelled);
  EXPECT_EQ(result.status().stage(), "raster");
  EXPECT_EQ(source.probe_count(), 512);
}

TEST(RasterCancellationTest, ProbeBudgetStopsAtBatchBoundaryWithPartialProbes) {
  const Csd recorded = make_synthetic_csd(SyntheticCsdSpec{.pixels = 64});
  CsdPlayback playback(recorded);
  AcquisitionContext context;
  context.max_probes = 500;

  const Result<Csd> result =
      acquire_full_csd(playback, recorded.x_axis(), recorded.y_axis(), context);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), ErrorCode::kBudgetExhausted);
  EXPECT_EQ(result.status().stage(), "raster");
  // The first 512-probe batch crosses the 500-probe budget; the boundary
  // check fires before the second batch.
  EXPECT_EQ(playback.probe_count(), 512);
}

TEST(FastExtractorCancellationTest, NeverFiringTokenIsBitIdentical) {
  const Csd recorded =
      make_synthetic_csd(SyntheticCsdSpec{.noise_sigma = 0.02});
  CsdPlayback plain_playback(recorded);
  const FastExtractionResult plain = run_fast_extraction(
      plain_playback, recorded.x_axis(), recorded.y_axis());

  CsdPlayback checked_playback(recorded);
  const FastExtractionResult checked =
      run_fast_extraction(checked_playback, recorded.x_axis(),
                          recorded.y_axis(), {}, cancellable_context());

  EXPECT_EQ(plain.status, checked.status);
  EXPECT_EQ(plain.virtual_gates.alpha12, checked.virtual_gates.alpha12);
  EXPECT_EQ(plain.virtual_gates.alpha21, checked.virtual_gates.alpha21);
  EXPECT_EQ(plain.slope_steep, checked.slope_steep);
  EXPECT_EQ(plain.stats.unique_probes, checked.stats.unique_probes);
  EXPECT_EQ(plain.stats.total_requests, checked.stats.total_requests);
  EXPECT_EQ(plain.stats.simulated_seconds, checked.stats.simulated_seconds);
  ASSERT_EQ(plain.probe_log.size(), checked.probe_log.size());
  for (std::size_t i = 0; i < plain.probe_log.size(); ++i)
    EXPECT_EQ(plain.probe_log[i], checked.probe_log[i]) << "probe " << i;
}

TEST(FastExtractorCancellationTest, PreCancelledStopsBeforeAnyProbe) {
  const Csd recorded = make_synthetic_csd(SyntheticCsdSpec{});
  CsdPlayback playback(recorded);
  AcquisitionContext context = cancellable_context();
  context.cancel.cancel();

  const FastExtractionResult result = run_fast_extraction(
      playback, recorded.x_axis(), recorded.y_axis(), {}, context);
  EXPECT_EQ(result.status.code(), ErrorCode::kCancelled);
  EXPECT_EQ(result.status.stage(), "anchors");
  EXPECT_EQ(result.stats.unique_probes, 0);
  EXPECT_EQ(result.stats.total_requests, 0);
  EXPECT_TRUE(result.probe_log.empty());
}

TEST(FastExtractorCancellationTest, ProbeBudgetInterruptsWithPartialStats) {
  // Anchors alone cost a few hundred requests on a 100px scan; a budget of
  // 150 expires during them. The result carries the typed Status with the
  // interrupting stage and the partial probe accounting.
  const Csd recorded = make_synthetic_csd(SyntheticCsdSpec{});
  CsdPlayback playback(recorded);
  AcquisitionContext context;
  context.max_probes = 150;

  const FastExtractionResult result = run_fast_extraction(
      playback, recorded.x_axis(), recorded.y_axis(), {}, context);
  EXPECT_EQ(result.status.code(), ErrorCode::kBudgetExhausted);
  EXPECT_EQ(result.status.stage(), "anchors");
  EXPECT_GE(result.stats.total_requests, 150);
  EXPECT_GT(result.stats.unique_probes, 0);
  EXPECT_LT(result.stats.unique_probes, 10000);
}

TEST(FastExtractorCancellationTest, BudgetStopsEveryLaneAtTheSameCheck) {
  // A budget equal to the probe count sampled at a check stops the job at
  // exactly that check. One budget per anchor check after the diagonal
  // (before the mask sweeps, between Mask_x and Mask_y, before the snap
  // scans, between them) and one inside the sweeps. At depth >= 2 the
  // anchors submit the independent batch (Mask_y, snap B) ahead of the
  // check that gates it, so a stop there must abort that batch unexecuted:
  // every lane reports the same stop with the same probes issued.
  const Csd recorded = make_synthetic_csd(SyntheticCsdSpec{});

  std::vector<long> anchor_checks;
  std::vector<long> sweep_checks;
  {
    CsdPlayback playback(recorded);
    AcquisitionContext context;
    context.progress = ProgressSink::make([&](const ProgressEvent& event) {
      if (event.stage == "anchors") anchor_checks.push_back(event.probes_used);
      if (event.stage == "sweeps") sweep_checks.push_back(event.probes_used);
    });
    ASSERT_TRUE(run_fast_extraction(playback, recorded.x_axis(),
                                    recorded.y_axis(), {}, context)
                    .status.ok());
  }
  // Entry, before Mask_x, between the masks, before the snaps, between them.
  ASSERT_EQ(anchor_checks.size(), 5u);
  ASSERT_GT(sweep_checks.size(), 4u);

  struct Stop {
    long max_probes;
    const char* stage;
    bool after_lookahead;  // depth >= 2 has the next batch in flight
  };
  const std::vector<Stop> stops = {
      {anchor_checks[1], "anchors", false},
      {anchor_checks[2], "anchors", true},
      {anchor_checks[3], "anchors", false},
      {anchor_checks[4], "anchors", true},
      {sweep_checks[sweep_checks.size() / 2], "sweeps", false},
  };

  enum class Lane { kAdapter, kDepth1, kDepth4 };
  struct Run {
    FastExtractionResult result;
    FaultStats stats;
  };
  const auto run_lane = [&recorded](long max_probes, Lane lane) {
    CsdPlayback playback(recorded);
    AcquisitionContext context;
    context.max_probes = max_probes;
    context.faults = FaultRecorder::make();
    if (lane == Lane::kDepth1) context.transport.io_depth = 1;
    if (lane == Lane::kDepth4) context.transport.io_depth = 4;
    Run run{run_fast_extraction(playback, recorded.x_axis(),
                                recorded.y_axis(), {}, context),
            {}};
    run.stats = context.faults.snapshot();
    return run;
  };

  for (const Stop& stop : stops) {
    SCOPED_TRACE(stop.max_probes);
    const Run adapter = run_lane(stop.max_probes, Lane::kAdapter);
    EXPECT_EQ(adapter.result.status.code(), ErrorCode::kBudgetExhausted);
    EXPECT_EQ(adapter.result.status.stage(), stop.stage);
    EXPECT_EQ(adapter.result.stats.total_requests, stop.max_probes);
    EXPECT_EQ(adapter.stats.driver_aborted_transfers, 0);
    for (const Lane lane : {Lane::kDepth1, Lane::kDepth4}) {
      const Run run = run_lane(stop.max_probes, lane);
      EXPECT_EQ(run.result.status, adapter.result.status);
      EXPECT_EQ(run.result.stats.unique_probes,
                adapter.result.stats.unique_probes);
      EXPECT_EQ(run.result.stats.total_requests,
                adapter.result.stats.total_requests);
      EXPECT_EQ(run.result.probe_log, adapter.result.probe_log);
      const bool aborted = lane == Lane::kDepth4 && stop.after_lookahead;
      EXPECT_EQ(run.stats.driver_aborted_transfers, aborted ? 1 : 0);
    }
  }
}

TEST(FastExtractorCancellationTest, SweepStageInterruptionKeepsPartialPoints) {
  // A budget sized to survive the anchor scans but not the sweeps: measure
  // the (deterministic) anchor request count first, then allow a few sweep
  // segments on top. The interruption stage must be "sweeps" and the
  // partial sweep points are retained on the result.
  const Csd recorded = make_synthetic_csd(SyntheticCsdSpec{});
  CsdPlayback anchor_playback(recorded);
  ProbeCache anchor_cache(anchor_playback, recorded.x_axis().step());
  ASSERT_TRUE(find_anchor_points(anchor_cache, recorded.x_axis(),
                                 recorded.y_axis())
                  .ok());
  const long anchor_requests = anchor_cache.probe_count();

  CsdPlayback playback(recorded);
  AcquisitionContext context;
  context.max_probes = anchor_requests + 40;

  const FastExtractionResult result = run_fast_extraction(
      playback, recorded.x_axis(), recorded.y_axis(), {}, context);
  ASSERT_EQ(result.status.code(), ErrorCode::kBudgetExhausted);
  EXPECT_EQ(result.status.stage(), "sweeps");
  EXPECT_GT(result.sweeps.row_points.size() + result.sweeps.col_points.size(),
            0u);
  EXPECT_GE(result.stats.total_requests, context.max_probes);
}

TEST(HoughBaselineCancellationTest, DeadlineDuringRasterReportsPartialStats) {
  const Csd recorded = make_synthetic_csd(SyntheticCsdSpec{.pixels = 64});
  CsdPlayback playback(recorded);
  AcquisitionContext context;
  context.max_probes = 1000;

  const HoughBaselineResult result = run_hough_baseline(
      playback, recorded.x_axis(), recorded.y_axis(), {}, context);
  EXPECT_EQ(result.status.code(), ErrorCode::kBudgetExhausted);
  EXPECT_EQ(result.status.stage(), "raster");
  EXPECT_EQ(result.stats.unique_probes, 1024);  // two 512-probe batches
  EXPECT_LT(result.stats.unique_probes, 64 * 64);
  EXPECT_GT(result.stats.simulated_seconds, 0.0);
}

TEST(HoughBaselineCancellationTest, BudgetLandingOnCompletionKeepsTheResult) {
  // The budget caps what the job may *issue*. A raster that fits exactly
  // (4096 probes on a 4096-probe budget) completes, and the probe-free
  // analysis stage must still run — compute-only checkpoints consult only
  // cancellation and the deadline, not the spent budget.
  const Csd recorded = make_synthetic_csd(SyntheticCsdSpec{.pixels = 64});
  CsdPlayback playback(recorded);
  AcquisitionContext context;
  context.max_probes = 64 * 64;

  const HoughBaselineResult result = run_hough_baseline(
      playback, recorded.x_axis(), recorded.y_axis(), {}, context);
  EXPECT_NE(result.status.code(), ErrorCode::kBudgetExhausted);
  EXPECT_EQ(result.stats.unique_probes, 64 * 64);
  EXPECT_GT(result.edge_pixels, 0);
}

TEST(HoughBaselineCancellationTest, NeverFiringTokenIsBitIdentical) {
  const Csd recorded =
      make_synthetic_csd(SyntheticCsdSpec{.pixels = 64, .noise_sigma = 0.02});
  CsdPlayback plain_playback(recorded);
  const HoughBaselineResult plain = run_hough_baseline(
      plain_playback, recorded.x_axis(), recorded.y_axis());

  CsdPlayback checked_playback(recorded);
  const HoughBaselineResult checked =
      run_hough_baseline(checked_playback, recorded.x_axis(),
                         recorded.y_axis(), {}, cancellable_context());

  EXPECT_EQ(plain.status, checked.status);
  EXPECT_EQ(plain.acquired.grid(), checked.acquired.grid());
  EXPECT_EQ(plain.edge_pixels, checked.edge_pixels);
  EXPECT_EQ(plain.virtual_gates.alpha12, checked.virtual_gates.alpha12);
  EXPECT_EQ(plain.stats.unique_probes, checked.stats.unique_probes);
  EXPECT_EQ(plain.stats.simulated_seconds, checked.stats.simulated_seconds);
}

TEST(ArrayCancellationTest, PreCancelledArrayReportsInterruptedPairs) {
  DotArrayParams params;
  params.n_dots = 4;
  const BuiltDevice device = build_dot_array(params);
  ArrayExtractionOptions options;
  options.pixels_per_axis = 48;

  AcquisitionContext context = cancellable_context();
  context.cancel.cancel();
  const ArrayExtractionResult result =
      extract_array_virtualization(device, options, context);

  EXPECT_EQ(result.status.code(), ErrorCode::kCancelled);
  EXPECT_EQ(result.status.stage(), "array");
  ASSERT_EQ(result.pairs.size(), 3u);
  for (const auto& pair : result.pairs) {
    EXPECT_EQ(pair.status.code(), ErrorCode::kCancelled);
    EXPECT_EQ(pair.stats.unique_probes, 0);
  }
}

}  // namespace
}  // namespace qvg
