// The instrument-driver acquisition path (PR 10): SyncSourceAdapter is
// call-for-call the pre-driver loop, InstrumentDriver executes a bounded
// request ring serially in submission order (so pipelined acquisition stays
// bit-identical to synchronous at any io_depth, for every backend), the
// per-batch transport charge is order-independent, interruption is typed and
// deterministic, and shutdown/abort drains the ring without leaking a
// completion. The driver runs every batch on the caller's thread, so its
// ring occupancy — and every FaultStats field — is a pure function of the
// request. CI runs this binary pinned at QVG_THREADS=1 and =4 on top of the
// default registration (see CMakeLists.txt).
#include "common/error.hpp"
#include "device/dot_array.hpp"
#include "device/noise.hpp"
#include "extraction/fast_extractor.hpp"
#include "probe/acquisition_context.hpp"
#include "probe/driver/async_source.hpp"
#include "probe/driver/instrument_driver.hpp"
#include "probe/fault_injection.hpp"
#include "probe/playback.hpp"
#include "probe/probe_cache.hpp"
#include "probe/raster.hpp"
#include "probe/retry_policy.hpp"
#include "service/extraction_engine.hpp"
#include "test_support.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

namespace qvg {
namespace {

using testsupport::SyntheticCsdSpec;
using testsupport::make_synthetic_csd;

const bool g_force_threads = testsupport::force_multithread_pool();

/// The three acquisition lanes every equivalence test compares. kAdapter is
/// the default (transport disabled) path; the depth lanes route through an
/// InstrumentDriver with a free link (zero latency/bandwidth), so even the
/// sim clock must match the adapter bit for bit.
enum class Lane { kAdapter, kDepth1, kDepth4 };

AcquisitionContext lane_context(Lane lane) {
  AcquisitionContext context;
  context.faults = FaultRecorder::make();
  context.retry.jitter_fraction = 0.0;
  if (lane == Lane::kDepth1) context.transport.io_depth = 1;
  if (lane == Lane::kDepth4) context.transport.io_depth = 4;
  return context;
}

std::vector<Point2> row_points(const Csd& csd, std::size_t row,
                               std::size_t count) {
  std::vector<Point2> points;
  points.reserve(count);
  for (std::size_t x = 0; x < count; ++x)
    points.push_back({csd.x_axis().voltage(x), csd.y_axis().voltage(row)});
  return points;
}

TEST(SyncSourceAdapterTest, MatchesDirectProbeWithRetry) {
  const Csd recorded = make_synthetic_csd(SyntheticCsdSpec{.pixels = 16});
  const std::vector<Point2> points = row_points(recorded, 0, 8);
  std::vector<double> expected(points.size());
  {
    CsdPlayback playback(recorded);
    AcquisitionContext context;
    ASSERT_TRUE(
        probe_with_retry(playback, points, expected, context, "test").ok());
  }

  CsdPlayback playback(recorded);
  SyncSourceAdapter adapter(playback);
  AcquisitionContext context;
  std::vector<double> out(points.size());
  CompletionHandle handle = adapter.submit(points, out, context, "test");
  ASSERT_TRUE(handle.valid());
  const BatchCompletion& completion = handle.wait();

  ASSERT_TRUE(completion.outcome.ok());
  EXPECT_EQ(out, expected);
  EXPECT_EQ(completion.probes_after, static_cast<long>(points.size()));
  EXPECT_EQ(adapter.probes_completed(), playback.probe_count());
  EXPECT_EQ(adapter.depth(), 1);
}

TEST(InstrumentDriverTest, RejectsInvalidTransport) {
  const Csd recorded = make_synthetic_csd(SyntheticCsdSpec{.pixels = 16});
  CsdPlayback playback(recorded);
  TransportOptions transport;  // io_depth 0: the driver is not a valid lane
  EXPECT_THROW(InstrumentDriver(playback, transport), ContractViolation);
  transport.io_depth = 2;
  transport.latency_us = -1.0;
  EXPECT_THROW(InstrumentDriver(playback, transport), ContractViolation);
}

TEST(InstrumentDriverTest, RejectsNonFiniteTransport) {
  const Csd recorded = make_synthetic_csd(SyntheticCsdSpec{.pixels = 16});
  CsdPlayback playback(recorded);
  for (const double value : {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity()}) {
    TransportOptions latency;
    latency.io_depth = 2;
    latency.latency_us = value;
    EXPECT_THROW(InstrumentDriver(playback, latency), ContractViolation)
        << value;
    TransportOptions bandwidth;
    bandwidth.io_depth = 2;
    bandwidth.bandwidth = value;
    EXPECT_THROW(InstrumentDriver(playback, bandwidth), ContractViolation)
        << value;
  }
}

TEST(CompletionHandleTest, WaitOnAnInvalidHandleIsAContractViolation) {
  const CompletionHandle handle;
  ASSERT_FALSE(handle.valid());
  EXPECT_THROW((void)handle.wait(), ContractViolation);
}

TEST(InstrumentDriverTest, ExecutesBatchesInSubmissionOrder) {
  const Csd recorded = make_synthetic_csd(SyntheticCsdSpec{.pixels = 16});
  std::vector<std::vector<Point2>> batches;
  std::vector<std::vector<double>> expected;
  for (std::size_t row = 0; row < 3; ++row) {
    batches.push_back(row_points(recorded, row, 8));
    expected.emplace_back(8);
  }
  {
    CsdPlayback playback(recorded);
    for (std::size_t b = 0; b < batches.size(); ++b)
      playback.get_currents(batches[b], expected[b]);
  }

  CsdPlayback playback(recorded);
  AcquisitionContext context;
  std::vector<std::vector<double>> out(batches.size(),
                                       std::vector<double>(8));
  TransportOptions transport;
  transport.io_depth = 4;
  {
    InstrumentDriver driver(playback, transport);
    std::vector<CompletionHandle> handles;
    for (std::size_t b = 0; b < batches.size(); ++b)
      handles.push_back(driver.submit(batches[b], out[b], context, "test"));
    long previous = 0;
    for (const CompletionHandle& handle : handles) {
      const BatchCompletion& completion = handle.wait();
      ASSERT_TRUE(completion.outcome.ok());
      // Serial in-order execution: each completion's probe count strictly
      // extends the previous one's.
      EXPECT_EQ(completion.probes_after, previous + 8);
      previous = completion.probes_after;
    }
    driver.drain();
    EXPECT_EQ(driver.probes_completed(), 24);
    const DriverStats stats = driver.stats();
    EXPECT_EQ(stats.batches, 3);
    EXPECT_EQ(stats.aborted_transfers, 0);
  }
  EXPECT_EQ(out, expected);
}

TEST(InstrumentDriverTest, WaitingALaterHandleRunsTheRingInOrder) {
  // Waiting the newest handle first runs every older queued batch ahead of
  // it, so execution order is still submission order.
  const Csd recorded = make_synthetic_csd(SyntheticCsdSpec{.pixels = 16});
  std::vector<std::vector<Point2>> batches;
  std::vector<std::vector<double>> out;
  for (std::size_t row = 0; row < 3; ++row) {
    batches.push_back(row_points(recorded, row, 8));
    out.emplace_back(8);
  }
  CsdPlayback playback(recorded);
  AcquisitionContext context;
  TransportOptions transport;
  transport.io_depth = 4;
  InstrumentDriver driver(playback, transport);
  std::vector<CompletionHandle> handles;
  for (std::size_t b = 0; b < batches.size(); ++b)
    handles.push_back(driver.submit(batches[b], out[b], context, "test"));
  ASSERT_TRUE(handles[2].wait().outcome.ok());
  EXPECT_EQ(handles[0].wait().probes_after, 8);
  EXPECT_EQ(handles[1].wait().probes_after, 16);
  EXPECT_EQ(handles[2].wait().probes_after, 24);
  EXPECT_EQ(driver.stats().batches, 3);
  EXPECT_EQ(driver.stats().max_inflight, 3);
}

/// Forwards to an inner source, recording the id of every thread that
/// probes it.
class ThreadRecordingSource final : public CurrentSource {
 public:
  explicit ThreadRecordingSource(CurrentSource& inner) : inner_(inner) {}

  double get_current(double v1, double v2) override {
    threads_.push_back(std::this_thread::get_id());
    return inner_.get_current(v1, v2);
  }
  void get_currents(std::span<const Point2> points,
                    std::span<double> out) override {
    threads_.push_back(std::this_thread::get_id());
    inner_.get_currents(points, out);
  }
  [[nodiscard]] SimClock& clock() override { return inner_.clock(); }
  [[nodiscard]] const SimClock& clock() const override {
    return inner_.clock();
  }
  [[nodiscard]] long probe_count() const override {
    return inner_.probe_count();
  }

  [[nodiscard]] const std::vector<std::thread::id>& threads() const {
    return threads_;
  }

 private:
  CurrentSource& inner_;
  std::vector<std::thread::id> threads_;
};

TEST(InstrumentDriverTest, ProbesRunOnTheCallersThreadInBothClockModes) {
  const Csd recorded = make_synthetic_csd(SyntheticCsdSpec{.pixels = 48});
  for (const bool wall_clock : {false, true}) {
    CsdPlayback playback(recorded);
    ThreadRecordingSource recording(playback);
    AcquisitionContext context;
    context.transport.io_depth = 4;
    context.transport.latency_us = 200.0;
    context.transport.wall_clock = wall_clock;
    const Result<Csd> result = acquire_full_csd(
        recording, recorded.x_axis(), recorded.y_axis(), context);
    ASSERT_TRUE(result.ok()) << wall_clock;
    ASSERT_FALSE(recording.threads().empty());
    for (const std::thread::id id : recording.threads())
      EXPECT_EQ(id, std::this_thread::get_id()) << wall_clock;
  }
}

// ---------------------------------------------------------------------------
// Bit-identity across lanes, per backend. The driver executes serially in
// submission order, so the probe traffic every backend observes — order,
// counts, retries, cache hits, noise draws — is the synchronous loops'.
// ---------------------------------------------------------------------------

struct RasterRun {
  Result<Csd> result;
  long probes = 0;
  double seconds = 0.0;
  FaultStats stats;
};

/// Compare everything except the driver-boundary accounting, which differs
/// across lanes by design (the adapter records no transfers).
void expect_non_driver_stats_equal(const FaultStats& a, const FaultStats& b) {
  FaultStats lhs = a;
  FaultStats rhs = b;
  lhs.driver_batches = rhs.driver_batches = 0;
  lhs.driver_aborted_transfers = rhs.driver_aborted_transfers = 0;
  lhs.driver_max_inflight = rhs.driver_max_inflight = 0;
  lhs.transport_stall_seconds = rhs.transport_stall_seconds = 0.0;
  EXPECT_EQ(lhs, rhs);
}

void expect_raster_lanes_identical(
    const std::function<RasterRun(Lane)>& run_lane) {
  const RasterRun adapter = run_lane(Lane::kAdapter);
  const RasterRun depth1 = run_lane(Lane::kDepth1);
  const RasterRun depth4 = run_lane(Lane::kDepth4);
  ASSERT_TRUE(adapter.result.ok());
  ASSERT_TRUE(depth1.result.ok());
  ASSERT_TRUE(depth4.result.ok());
  EXPECT_EQ(adapter.result->grid(), depth1.result->grid());
  EXPECT_EQ(adapter.result->grid(), depth4.result->grid());
  EXPECT_EQ(adapter.probes, depth1.probes);
  EXPECT_EQ(adapter.probes, depth4.probes);
  EXPECT_EQ(adapter.seconds, depth1.seconds);
  EXPECT_EQ(adapter.seconds, depth4.seconds);
  expect_non_driver_stats_equal(adapter.stats, depth1.stats);
  expect_non_driver_stats_equal(adapter.stats, depth4.stats);
}

TEST(DriverRasterEquivalenceTest, PlaybackBackend) {
  const Csd recorded = make_synthetic_csd(SyntheticCsdSpec{.pixels = 48});
  expect_raster_lanes_identical([&](Lane lane) {
    CsdPlayback playback(recorded);
    AcquisitionContext context = lane_context(lane);
    RasterRun run{acquire_full_csd(playback, recorded.x_axis(),
                                   recorded.y_axis(), context)};
    run.probes = playback.probe_count();
    run.seconds = playback.clock().elapsed_seconds();
    run.stats = context.faults.snapshot();
    return run;
  });
}

TEST(DriverRasterEquivalenceTest, SimulatorBackendWithTemporalNoise) {
  // Temporal noise makes probe *order* observable: a driver that reordered
  // or split batches differently would change the acquired pixels.
  DotArrayParams params;
  params.n_dots = 2;
  const BuiltDevice device = build_dot_array(params);
  const VoltageAxis axis = scan_axis(device, 24);
  expect_raster_lanes_identical([&](Lane lane) {
    DeviceSimulator sim = make_pair_simulator(device);
    sim.add_noise(std::make_unique<WhiteNoise>(0.02));
    sim.add_noise(std::make_unique<TelegraphNoise>(0.05, 0.5));
    AcquisitionContext context = lane_context(lane);
    RasterRun run{acquire_full_csd(sim, axis, axis, context)};
    run.probes = sim.probe_count();
    run.seconds = sim.clock().elapsed_seconds();
    run.stats = context.faults.snapshot();
    return run;
  });
}

TEST(DriverRasterEquivalenceTest, CacheBackendKeepsHitAccounting) {
  const Csd recorded = make_synthetic_csd(SyntheticCsdSpec{.pixels = 48});
  std::vector<long> unique, hits;
  expect_raster_lanes_identical([&](Lane lane) {
    CsdPlayback playback(recorded);
    ProbeCache cache(playback, recorded.x_axis().step());
    AcquisitionContext context = lane_context(lane);
    RasterRun run{acquire_full_csd(cache, recorded.x_axis(),
                                   recorded.y_axis(), context)};
    run.probes = cache.probe_count();
    run.seconds = playback.clock().elapsed_seconds();
    run.stats = context.faults.snapshot();
    unique.push_back(cache.unique_probe_count());
    hits.push_back(cache.cache_hits());
    return run;
  });
  ASSERT_EQ(unique.size(), 3u);
  EXPECT_EQ(unique[0], unique[1]);
  EXPECT_EQ(unique[0], unique[2]);
  EXPECT_EQ(hits[0], hits[1]);
  EXPECT_EQ(hits[0], hits[2]);
}

TEST(DriverRasterEquivalenceTest, FaultInjectionBackendTransientWeather) {
  const Csd recorded = make_synthetic_csd(SyntheticCsdSpec{.pixels = 48});
  FaultSchedule schedule;
  schedule.transient_rate = 0.2;
  schedule.seed = 99;
  expect_raster_lanes_identical([&](Lane lane) {
    CsdPlayback playback(recorded);
    FaultInjectingCurrentSource injected(playback, schedule);
    AcquisitionContext context = lane_context(lane);
    RasterRun run{acquire_full_csd(injected, recorded.x_axis(),
                                   recorded.y_axis(), context)};
    run.probes = playback.probe_count();
    run.seconds = playback.clock().elapsed_seconds();
    run.stats = context.faults.snapshot();
    return run;
  });
}

TEST(DriverRasterEquivalenceTest, DriftRecoveryReprobesIdenticallyAtDepth4) {
  // A telegraph jump mid-raster: recovery drains the ring, invalidates the
  // stale rows, and re-issues serially — the same rows, in the same order,
  // at any depth. The re-acquired grid equals the clean raster exactly.
  const Csd recorded = make_synthetic_csd(SyntheticCsdSpec{.pixels = 64});
  CsdPlayback plain_playback(recorded);
  const Csd plain =
      acquire_full_csd(plain_playback, recorded.x_axis(), recorded.y_axis());

  FaultSchedule schedule;
  schedule.jump_at_batch = 1;
  schedule.jump_magnitude_volts = 0.003;
  expect_raster_lanes_identical([&](Lane lane) {
    CsdPlayback playback(recorded);
    FaultInjectingCurrentSource injected(playback, schedule);
    AcquisitionContext context = lane_context(lane);
    RasterRun run{acquire_full_csd(injected, recorded.x_axis(),
                                   recorded.y_axis(), context)};
    run.probes = playback.probe_count();
    run.seconds = playback.clock().elapsed_seconds();
    run.stats = context.faults.snapshot();
    EXPECT_EQ(run.stats.drift_events, 1);
    EXPECT_EQ(run.stats.reacquired_rows, 8);
    if (run.result.ok()) EXPECT_EQ(run.result->grid(), plain.grid());
    return run;
  });
}

TEST(DriverExtractionEquivalenceTest, FastPipelineBitIdenticalAcrossDepths) {
  // The full fast pipeline — raster-free anchors, sweeps, cache, probe log —
  // through all three lanes. probe_log equality is the strongest claim: the
  // driver changed *when* batches execute, never *what* is probed.
  const Csd recorded = make_synthetic_csd(SyntheticCsdSpec{.pixels = 100});
  auto run_lane = [&recorded](Lane lane) {
    CsdPlayback source(recorded);
    AcquisitionContext context = lane_context(lane);
    FastExtractionResult result = run_fast_extraction(
        source, recorded.x_axis(), recorded.y_axis(), {}, context);
    return result;
  };
  const FastExtractionResult adapter = run_lane(Lane::kAdapter);
  const FastExtractionResult depth1 = run_lane(Lane::kDepth1);
  const FastExtractionResult depth4 = run_lane(Lane::kDepth4);

  ASSERT_TRUE(adapter.status.ok());
  for (const FastExtractionResult* lane : {&depth1, &depth4}) {
    ASSERT_TRUE(lane->status.ok());
    EXPECT_EQ(adapter.virtual_gates.alpha12, lane->virtual_gates.alpha12);
    EXPECT_EQ(adapter.virtual_gates.alpha21, lane->virtual_gates.alpha21);
    EXPECT_EQ(adapter.slope_steep, lane->slope_steep);
    EXPECT_EQ(adapter.slope_shallow, lane->slope_shallow);
    EXPECT_EQ(adapter.stats.unique_probes, lane->stats.unique_probes);
    EXPECT_EQ(adapter.stats.total_requests, lane->stats.total_requests);
    EXPECT_EQ(adapter.stats.simulated_seconds, lane->stats.simulated_seconds);
    ASSERT_EQ(adapter.probe_log.size(), lane->probe_log.size());
    for (std::size_t i = 0; i < adapter.probe_log.size(); ++i) {
      EXPECT_EQ(adapter.probe_log[i].x, lane->probe_log[i].x) << i;
      EXPECT_EQ(adapter.probe_log[i].y, lane->probe_log[i].y) << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Transport accounting and typed interruption.
// ---------------------------------------------------------------------------

TEST(DriverTransportTest, SimClockChargeIsDepthIndependent) {
  // The per-batch charge latency + n/bandwidth sums in execution order,
  // which the serial ring keeps equal to submission order — so the total is
  // an exact (not approximate) function of the batch set.
  const Csd recorded = make_synthetic_csd(SyntheticCsdSpec{.pixels = 48});
  auto run_depth = [&](long io_depth, FaultStats& stats) {
    CsdPlayback playback(recorded);
    AcquisitionContext context;
    context.faults = FaultRecorder::make();
    context.transport.io_depth = io_depth;
    context.transport.latency_us = 1000.0;
    context.transport.bandwidth = 1.0e5;
    const Result<Csd> result = acquire_full_csd(
        playback, recorded.x_axis(), recorded.y_axis(), context);
    stats = context.faults.snapshot();
    EXPECT_TRUE(result.ok());
    return playback.clock().elapsed_seconds();
  };
  FaultStats stats1, stats4;
  const double seconds1 = run_depth(1, stats1);
  const double seconds4 = run_depth(4, stats4);
  EXPECT_EQ(seconds1, seconds4);
  EXPECT_EQ(stats1.driver_batches, stats4.driver_batches);
  EXPECT_GT(stats1.driver_batches, 0);
  EXPECT_EQ(stats1.transport_stall_seconds, stats4.transport_stall_seconds);
  EXPECT_GT(stats1.transport_stall_seconds, 0.0);
  EXPECT_EQ(stats1.driver_max_inflight, 1);
  EXPECT_EQ(stats4.driver_max_inflight, 4);
}

TEST(DriverTransportTest, BudgetInterruptionIsTypedAndDeterministic) {
  // The budget decision rides completion-carried probe counts, so the typed
  // outcome is identical at every depth and across repeated runs.
  const Csd recorded = make_synthetic_csd(SyntheticCsdSpec{.pixels = 64});
  auto run_depth = [&](long io_depth) {
    CsdPlayback playback(recorded);
    AcquisitionContext context;
    context.max_probes = 1500;  // mid-raster: 64*64 = 4096 total
    if (io_depth > 0) context.transport.io_depth = io_depth;
    return acquire_full_csd(playback, recorded.x_axis(), recorded.y_axis(),
                            context)
        .status();
  };
  for (const long depth : {0L, 1L, 4L}) {
    const Status first = run_depth(depth);
    const Status second = run_depth(depth);
    EXPECT_EQ(first.code(), ErrorCode::kBudgetExhausted) << depth;
    EXPECT_EQ(first.stage(), std::string("raster")) << depth;
    EXPECT_EQ(second.code(), first.code()) << depth;
    EXPECT_EQ(second.stage(), first.stage()) << depth;
  }
}

TEST(DriverTransportTest, CancelMidTransferAbortsAtTheDriverBoundary) {
  // Wall-clock mode with a serializing link: the raster takes >= 160 ms of
  // transfer time, the cancel fires ~25 ms in, and the driver must abort the
  // in-flight transfer at a poll boundary instead of waiting it out.
  const Csd recorded = make_synthetic_csd(SyntheticCsdSpec{.pixels = 64});
  CsdPlayback playback(recorded);
  AcquisitionContext context;
  context.faults = FaultRecorder::make();
  context.cancel = CancelToken::make();
  context.transport.io_depth = 2;
  context.transport.bandwidth = 25600.0;  // 512-point batch = 20 ms transfer
  context.transport.wall_clock = true;

  std::thread canceller([token = context.cancel]() mutable {
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
    token.cancel();
  });
  const auto start = std::chrono::steady_clock::now();
  const Result<Csd> result = acquire_full_csd(
      playback, recorded.x_axis(), recorded.y_axis(), context);
  const double waited =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  canceller.join();

  EXPECT_EQ(result.status().code(), ErrorCode::kCancelled);
  EXPECT_LT(waited, 5.0);  // nowhere near the ~160 ms serialized link, with
                           // head-room for a slow CI machine
  const FaultStats stats = context.faults.snapshot();
  EXPECT_GE(stats.driver_aborted_transfers, 1);
  EXPECT_GE(stats.driver_max_inflight, 2);  // the ring actually pipelined
}

// ---------------------------------------------------------------------------
// Ring lifecycle: abort and shutdown drain without leaking a completion.
// ---------------------------------------------------------------------------

TEST(DriverRingTest, ShutdownDrainsEveryOutstandingHandle) {
  const Csd recorded = make_synthetic_csd(SyntheticCsdSpec{.pixels = 16});
  // Buffers outlive the driver: the contract is that spans stay valid until
  // each handle is waited, which happens after destruction here.
  std::vector<std::vector<Point2>> batches;
  std::vector<std::vector<double>> out;
  for (std::size_t row = 0; row < 4; ++row) {
    batches.push_back(row_points(recorded, row, 8));
    out.emplace_back(8);
  }
  CsdPlayback playback(recorded);
  AcquisitionContext context;
  TransportOptions transport;
  transport.io_depth = 4;
  transport.bandwidth = 160.0;  // 8-point batch = 50 ms: all 4 still queued
  transport.wall_clock = true;

  std::vector<CompletionHandle> handles;
  {
    InstrumentDriver driver(playback, transport);
    for (std::size_t b = 0; b < batches.size(); ++b)
      handles.push_back(driver.submit(batches[b], out[b], context, "test"));
  }  // destructor: fails whatever never ran

  int aborted = 0;
  for (const CompletionHandle& handle : handles) {
    const BatchCompletion& completion = handle.wait();  // must not hang
    if (!completion.outcome.ok()) {
      EXPECT_EQ(completion.outcome.status.code(), ErrorCode::kCancelled);
      EXPECT_EQ(completion.probes_after, 0);
      ++aborted;
    }
  }
  EXPECT_GE(aborted, 3);  // at most the first transfer can have finished
}

TEST(DriverRingTest, AbortInflightFailsQueuedAndTheRingRecovers) {
  const Csd recorded = make_synthetic_csd(SyntheticCsdSpec{.pixels = 16});
  std::vector<std::vector<Point2>> batches;
  std::vector<std::vector<double>> out;
  for (std::size_t row = 0; row < 3; ++row) {
    batches.push_back(row_points(recorded, row, 8));
    out.emplace_back(8);
  }
  std::vector<double> clean(8);
  {
    CsdPlayback playback(recorded);
    playback.get_currents(batches[0], clean);
  }

  CsdPlayback playback(recorded);
  AcquisitionContext context;
  TransportOptions transport;
  transport.io_depth = 4;
  transport.bandwidth = 160.0;  // 50 ms per batch
  transport.wall_clock = true;
  InstrumentDriver driver(playback, transport);

  std::vector<CompletionHandle> handles;
  for (std::size_t b = 0; b < batches.size(); ++b)
    handles.push_back(driver.submit(batches[b], out[b], context, "test"));
  driver.abort_inflight();
  int aborted = 0;
  for (const CompletionHandle& handle : handles)
    if (!handle.wait().outcome.ok()) ++aborted;
  EXPECT_GE(aborted, 2);  // the two queued batches never execute

  // Later submissions run normally on the same ring.
  std::vector<double> retry_out(8);
  CompletionHandle handle =
      driver.submit(batches[0], retry_out, context, "test");
  const BatchCompletion& completion = handle.wait();
  ASSERT_TRUE(completion.outcome.ok());
  EXPECT_EQ(retry_out, clean);
  driver.drain();
  EXPECT_GE(driver.stats().aborted_transfers, 2);
  EXPECT_GE(driver.stats().batches, 1);
}

// ---------------------------------------------------------------------------
// Engine integration: transport rides the request, fault jobs clamp serial.
// ---------------------------------------------------------------------------

TEST(DriverEngineTest, TransportRequestMatchesDefaultLaneBitForBit) {
  const Csd recorded = make_synthetic_csd(SyntheticCsdSpec{.pixels = 100});
  ExtractionEngine engine;
  auto run_depth = [&](long io_depth) {
    ExtractionRequest request;
    request.playback.csd = &recorded;
    request.transport.io_depth = io_depth;
    return engine.run(request);
  };
  const ExtractionReport plain = run_depth(0);
  const ExtractionReport piped = run_depth(4);
  ASSERT_TRUE(plain.status.ok());
  ASSERT_TRUE(piped.status.ok());
  EXPECT_EQ(plain.virtual_gates.alpha12, piped.virtual_gates.alpha12);
  EXPECT_EQ(plain.virtual_gates.alpha21, piped.virtual_gates.alpha21);
  EXPECT_EQ(plain.stats.unique_probes, piped.stats.unique_probes);
  EXPECT_EQ(plain.stats.total_requests, piped.stats.total_requests);
  EXPECT_EQ(plain.stats.simulated_seconds, piped.stats.simulated_seconds);
  // Driver accounting only exists on the transport lane.
  EXPECT_EQ(plain.fault_stats.driver_batches, 0);
  EXPECT_GT(piped.fault_stats.driver_batches, 0);
}

TEST(DriverEngineTest, RepeatedTransportRunsReportIdenticalFaultStats) {
  // The ring runs on the submitting thread, so its high-water mark is a
  // function of the request and FaultStats compare in full.
  const Csd recorded = make_synthetic_csd(SyntheticCsdSpec{.pixels = 100});
  ExtractionEngine engine;
  ExtractionRequest request;
  request.playback.csd = &recorded;
  request.transport.io_depth = 4;
  const ExtractionReport first = engine.run(request);
  const ExtractionReport second = engine.run(request);
  ASSERT_TRUE(first.status.ok());
  ASSERT_TRUE(second.status.ok());
  EXPECT_GT(first.fault_stats.driver_max_inflight, 0);
  EXPECT_EQ(first.fault_stats, second.fault_stats);
}

TEST(DriverEngineTest, FaultInjectionClampsTheRingSerial) {
  // Drift recovery is defined on a serial ring; the engine clamps io_depth
  // to 1 when a fault schedule is active instead of failing the job.
  const Csd recorded = make_synthetic_csd(SyntheticCsdSpec{.pixels = 100});
  ExtractionEngine engine;
  ExtractionRequest request;
  request.playback.csd = &recorded;
  request.faults.transient_rate = 0.1;
  request.faults.seed = 7;
  request.transport.io_depth = 4;
  const ExtractionReport report = engine.run(request);
  ASSERT_TRUE(report.status.ok());
  EXPECT_GT(report.fault_stats.driver_batches, 0);
  EXPECT_EQ(report.fault_stats.driver_max_inflight, 1);

  // And the clamped run still equals the plain fault run bit for bit.
  ExtractionRequest plain_request = request;
  plain_request.transport = {};
  const ExtractionReport plain = engine.run(plain_request);
  ASSERT_TRUE(plain.status.ok());
  EXPECT_EQ(plain.virtual_gates.alpha12, report.virtual_gates.alpha12);
  EXPECT_EQ(plain.virtual_gates.alpha21, report.virtual_gates.alpha21);
  EXPECT_EQ(plain.stats.unique_probes, report.stats.unique_probes);
  expect_non_driver_stats_equal(plain.fault_stats, report.fault_stats);
}

}  // namespace
}  // namespace qvg
