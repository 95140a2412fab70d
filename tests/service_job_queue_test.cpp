// Async job sessions: JobQueue/JobHandle semantics, cancellation and
// deadline propagation through the service layer, and the drain-order
// independence guarantee (uncancelled async jobs bit-identical to
// synchronous engine.run, under any QVG_THREADS).
#include "dataset/qflow_synth.hpp"
#include "service/job_queue.hpp"
#include "test_support.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace qvg {
namespace {

const bool g_force_threads = testsupport::force_multithread_pool();

BuiltDevice test_device(std::size_t n_dots = 2) {
  DotArrayParams params;
  params.n_dots = n_dots;
  params.cross_ratio = 0.25;
  params.jitter = 0.05;
  Rng jitter(7);
  return build_dot_array(params, &jitter);
}

ExtractionRequest device_request(const BuiltDevice& device,
                                 ExtractionMethod method) {
  ExtractionRequest request;
  request.method = method;
  request.device.device = &device;
  request.device.noise_seed = 123;
  request.device.pixels_per_axis = 64;
  request.device.white_noise_sigma = 0.02;
  return request;
}

void expect_reports_identical(const ExtractionReport& a,
                              const ExtractionReport& b) {
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.virtual_gates.alpha12, b.virtual_gates.alpha12);
  EXPECT_EQ(a.virtual_gates.alpha21, b.virtual_gates.alpha21);
  EXPECT_EQ(a.slope_steep, b.slope_steep);
  EXPECT_EQ(a.slope_shallow, b.slope_shallow);
  EXPECT_EQ(a.stats.unique_probes, b.stats.unique_probes);
  EXPECT_EQ(a.stats.total_requests, b.stats.total_requests);
  EXPECT_DOUBLE_EQ(a.stats.simulated_seconds, b.stats.simulated_seconds);
  EXPECT_EQ(a.verdict.success, b.verdict.success);
  ASSERT_EQ(a.fast.probe_log.size(), b.fast.probe_log.size());
  for (std::size_t i = 0; i < a.fast.probe_log.size(); ++i)
    EXPECT_EQ(a.fast.probe_log[i], b.fast.probe_log[i]) << "probe " << i;
}

TEST(JobQueueTest, CancelBeforeStartYieldsCancelledWithZeroProbes) {
  const BuiltDevice device = test_device();
  CancelToken cancel = CancelToken::make();
  cancel.cancel();  // fired before the queue can start the job

  JobQueue jobs;
  JobHandle handle =
      jobs.submit(device_request(device, ExtractionMethod::kFast), cancel);
  const ExtractionReport& report = handle.wait();

  EXPECT_EQ(report.status.code(), ErrorCode::kCancelled);
  EXPECT_EQ(report.status.stage(), "engine");
  EXPECT_EQ(report.stats.unique_probes, 0);
  EXPECT_EQ(report.stats.total_requests, 0);
  EXPECT_TRUE(handle.done());
  ASSERT_TRUE(handle.try_report().has_value());
  EXPECT_EQ(handle.try_report()->status.code(), ErrorCode::kCancelled);
  // Cancelling a finished job is a no-op that reports "already done".
  EXPECT_FALSE(handle.cancel());
}

TEST(JobQueueTest, UncancelledAsyncJobsBitIdenticalToSynchronousRun) {
  // Fast and Hough, simulator and playback backends — submitted together,
  // drained in reverse, compared field by field against engine.run. Runs
  // under whatever QVG_THREADS the harness pins (the CI matrix covers 1 and
  // 4), including the no-worker degenerate queue.
  const BuiltDevice device = test_device();
  DeviceSimulator source_sim = make_pair_simulator(device, 0, 123);
  const VoltageAxis axis = scan_axis(device, 64);
  const Csd csd = source_sim.generate_csd(axis, axis, "replay");

  std::vector<ExtractionRequest> requests;
  requests.push_back(device_request(device, ExtractionMethod::kFast));
  requests.push_back(device_request(device, ExtractionMethod::kHoughBaseline));
  ExtractionRequest playback_fast;
  playback_fast.method = ExtractionMethod::kFast;
  playback_fast.playback.csd = &csd;
  requests.push_back(playback_fast);
  ExtractionRequest playback_hough = playback_fast;
  playback_hough.method = ExtractionMethod::kHoughBaseline;
  requests.push_back(playback_hough);

  const ExtractionEngine engine;
  std::vector<ExtractionReport> serial;
  serial.reserve(requests.size());
  for (const auto& request : requests) serial.push_back(engine.run(request));

  JobQueue jobs;
  std::vector<JobHandle> handles;
  handles.reserve(requests.size());
  for (const auto& request : requests) handles.push_back(jobs.submit(request));

  for (std::size_t i = handles.size(); i-- > 0;) {
    const ExtractionReport& async_report = handles[i].wait();
    expect_reports_identical(async_report, serial[i]);
  }
  jobs.wait_all();
  EXPECT_EQ(jobs.submitted(), requests.size());
  EXPECT_EQ(jobs.completed(), requests.size());
}

TEST(JobQueueTest, DefaultLabelsCarryTheJobId) {
  const BuiltDevice device = test_device();
  JobQueue jobs;
  JobHandle first =
      jobs.submit(device_request(device, ExtractionMethod::kFast));
  ExtractionRequest labelled = device_request(device, ExtractionMethod::kFast);
  labelled.label = "custom";
  JobHandle second = jobs.submit(labelled);

  EXPECT_EQ(first.id(), 0u);
  EXPECT_EQ(second.id(), 1u);
  EXPECT_EQ(first.wait().label, "job-0");
  EXPECT_EQ(second.wait().label, "custom");
}

TEST(JobQueueTest, PastDeadlineReportsDeadlineExceededAtEngineStage) {
  const BuiltDevice device = test_device();
  ExtractionRequest request = device_request(device, ExtractionMethod::kFast);
  request.deadline =
      std::chrono::steady_clock::now() - std::chrono::milliseconds(5);

  JobQueue jobs;
  // A temporary handle: the rvalue wait() overload returns by value.
  const ExtractionReport report = jobs.submit(request).wait();
  EXPECT_EQ(report.status.code(), ErrorCode::kDeadlineExceeded);
  EXPECT_EQ(report.status.stage(), "engine");
  EXPECT_EQ(report.stats.unique_probes, 0);
}

TEST(JobQueueTest, ProbeBudgetCarriesTheInterruptingStage) {
  // The budget expires mid-pipeline, so the stage names the actual
  // interruption point (one of the probing stages, not the engine entry),
  // and the partial ProbeStats survive into the report.
  const BuiltDevice device = test_device();
  ExtractionRequest request = device_request(device, ExtractionMethod::kFast);
  request.budget.max_probes = 120;

  JobQueue jobs;
  const ExtractionReport report = jobs.submit(request).wait();
  EXPECT_EQ(report.status.code(), ErrorCode::kBudgetExhausted);
  EXPECT_TRUE(report.status.stage() == "anchors" ||
              report.status.stage() == "sweeps" ||
              report.status.stage() == "fit")
      << "stage: " << report.status.stage();
  EXPECT_GT(report.stats.total_requests, 0);
  EXPECT_GE(report.stats.total_requests, 120);
}

TEST(JobQueueTest, HoughBudgetInterruptsDuringRaster) {
  const BuiltDevice device = test_device();
  ExtractionRequest request =
      device_request(device, ExtractionMethod::kHoughBaseline);
  request.budget.max_probes = 1000;

  JobQueue jobs;
  const ExtractionReport report = jobs.submit(request).wait();
  EXPECT_EQ(report.status.code(), ErrorCode::kBudgetExhausted);
  EXPECT_EQ(report.status.stage(), "raster");
  // Stops at a batch boundary: two whole 512-probe (8-row) batches.
  EXPECT_EQ(report.stats.unique_probes, 1024);
  EXPECT_LT(report.stats.unique_probes, 64L * 64L);
}

TEST(JobQueueTest, TinyWallBudgetExpiresBeforeProbing) {
  const BuiltDevice device = test_device();
  ExtractionRequest request = device_request(device, ExtractionMethod::kFast);
  request.budget.max_wall_seconds = 1e-12;  // expires within the entry check

  JobQueue jobs;
  const ExtractionReport report = jobs.submit(request).wait();
  EXPECT_EQ(report.status.code(), ErrorCode::kDeadlineExceeded);
}

TEST(JobQueueTest, HandleCancelInterruptsOrCompletesCleanly) {
  // Cancelling in-flight jobs races with their completion by design; every
  // job must end in exactly one of the two clean terminal states.
  const BuiltDevice device = test_device();
  JobQueue jobs;
  std::vector<JobHandle> handles;
  for (int i = 0; i < 6; ++i)
    handles.push_back(
        jobs.submit(device_request(device, ExtractionMethod::kFast)));
  for (auto& handle : handles) handle.cancel();

  for (auto& handle : handles) {
    const ExtractionReport& report = handle.wait();
    EXPECT_TRUE(report.status.ok() ||
                report.status.code() == ErrorCode::kCancelled)
        << report.status.message();
    if (!report.status.ok()) EXPECT_FALSE(report.status.stage().empty());
  }
  jobs.wait_all();
  EXPECT_EQ(jobs.completed(), handles.size());
}

/// Holds a dedicated pool's single worker busy until release() — submissions
/// made while gated pile up in the queue's pending list, so the dispatch
/// order once released is exactly the scheduler's priority order.
class WorkerGate {
 public:
  explicit WorkerGate(ThreadPool& pool) {
    pool.post([this] {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [&] { return released_; });
    });
  }
  void release() {
    std::lock_guard<std::mutex> lock(mutex_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool released_ = false;
};

/// Thread-safe dispatch-order recorder: every job's first progress event is
/// the "engine" entry check, so recording at sequence 0 captures the order
/// the scheduler started the jobs in.
struct DispatchOrder {
  std::mutex mutex;
  std::vector<std::string> labels;

  SubmitOptions options(Priority priority, std::string label_value) {
    SubmitOptions submit;
    submit.priority = priority;
    submit.on_progress = [this, label = std::move(label_value)](
                             const ProgressEvent& event) {
      if (event.sequence != 0) return;
      std::lock_guard<std::mutex> lock(mutex);
      labels.push_back(label);
    };
    return submit;
  }
};

TEST(JobQueueTest, CancelReturnValueIsAtomicWithCompletion) {
  // Pinned semantics: cancel() returns true iff the request was delivered
  // before the job published its report ("could still be observed"); false
  // iff the job had already finished, in which case the call had no effect.
  const BuiltDevice device = test_device();

  // A finished job: cancel is a no-op that must report false.
  JobQueue jobs;
  JobHandle finished =
      jobs.submit(device_request(device, ExtractionMethod::kFast));
  (void)finished.wait();
  EXPECT_FALSE(finished.cancel());

  // A job that cannot have started (its pool's only worker is gated):
  // cancel must report true and the job must end kCancelled.
  ThreadPool pool(1);
  JobQueue gated_jobs(&pool);
  WorkerGate gate(pool);
  JobHandle pending =
      gated_jobs.submit(device_request(device, ExtractionMethod::kFast));
  EXPECT_TRUE(pending.cancel());
  gate.release();
  EXPECT_EQ(pending.wait().status.code(), ErrorCode::kCancelled);
}

TEST(JobQueueTest, CancelRaceRegressionNeverMisreportsItsOwnCancellation) {
  // Regression for the racy pre-fix return value (token fired before the
  // done flag was read): a job whose report says kCancelled must have had
  // its one-and-only cancel() call return true — a false return claims the
  // call had no effect, so it can never accompany a cancellation it caused.
  // The old code could interleave [flip flag, job observes it and finishes
  // as kCancelled, read done=true] and return false.
  const BuiltDevice device = test_device();
  ThreadPool pool(2);
  JobQueue jobs(&pool);
  for (int round = 0; round < 24; ++round) {
    JobHandle handle =
        jobs.submit(device_request(device, ExtractionMethod::kFast));
    // Race the cancel against the running job.
    const bool observed = handle.cancel();
    const ExtractionReport report = std::move(handle).wait();
    if (report.status.code() == ErrorCode::kCancelled)
      EXPECT_TRUE(observed) << "round " << round
                            << ": cancel() returned false but the report "
                               "says this call cancelled the job";
    if (!observed)
      EXPECT_TRUE(handle.done()) << "round " << round
                                 << ": false means the job had finished";
  }
}

TEST(JobQueueTest, WaitAllDrainsConcurrentSubmitters) {
  const BuiltDevice device = test_device();
  ThreadPool pool(3);
  JobQueue jobs(&pool);
  constexpr int kThreads = 4;
  constexpr int kJobsPerThread = 3;
  std::mutex handles_mutex;
  std::vector<JobHandle> handles;
  std::vector<std::thread> submitters;
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (int j = 0; j < kJobsPerThread; ++j) {
        ExtractionRequest request =
            device_request(device, ExtractionMethod::kFast);
        request.device.noise_seed = 100 + static_cast<std::uint64_t>(
                                              t * kJobsPerThread + j);
        request.label = "t" + std::to_string(t) + "-j" + std::to_string(j);
        JobHandle handle = jobs.submit(std::move(request));
        std::lock_guard<std::mutex> lock(handles_mutex);
        handles.push_back(std::move(handle));
      }
    });
  }
  for (auto& thread : submitters) thread.join();
  jobs.wait_all();

  EXPECT_EQ(jobs.submitted(), kThreads * kJobsPerThread);
  EXPECT_EQ(jobs.completed(), kThreads * kJobsPerThread);
  EXPECT_EQ(jobs.pending(), 0u);
  for (const auto& handle : handles) {
    EXPECT_TRUE(handle.done());
    // Every job finished with a published report (success depends on the
    // per-thread noise seed; the drain guarantee is what is under test).
    ASSERT_TRUE(handle.try_report().has_value());
  }
  // Ids were assigned exactly once each, in [0, submitted).
  std::vector<bool> seen(handles.size(), false);
  for (const auto& handle : handles) {
    ASSERT_LT(handle.id(), seen.size());
    EXPECT_FALSE(seen[handle.id()]);
    seen[handle.id()] = true;
  }
}

TEST(JobQueueTest, DestructorDrainsJobsFromConcurrentSubmitters) {
  const BuiltDevice device = test_device();
  ThreadPool pool(2);
  std::vector<JobHandle> handles;
  {
    JobQueue jobs(&pool);
    std::mutex handles_mutex;
    std::vector<std::thread> submitters;
    for (int t = 0; t < 3; ++t) {
      submitters.emplace_back([&] {
        for (int j = 0; j < 2; ++j) {
          JobHandle handle =
              jobs.submit(device_request(device, ExtractionMethod::kFast));
          std::lock_guard<std::mutex> lock(handles_mutex);
          handles.push_back(std::move(handle));
        }
      });
    }
    for (auto& thread : submitters) thread.join();
    // Queue destroyed here: must block until every job has finished.
  }
  ASSERT_EQ(handles.size(), 6u);
  for (const auto& handle : handles) {
    EXPECT_TRUE(handle.done());
    ASSERT_TRUE(handle.try_report().has_value());
    EXPECT_TRUE(handle.try_report()->status.ok());
  }
}

TEST(JobQueueTest, PriorityOrdersDispatchUnderSaturation) {
  // With the single worker gated, four jobs pile up in the pending list;
  // the release order must be priority order (interactive, normal, batch),
  // FIFO within a class — not submission order.
  const BuiltDevice device = test_device();
  ThreadPool pool(1);
  JobQueue jobs(&pool);
  WorkerGate gate(pool);
  DispatchOrder order;

  const ExtractionRequest request =
      device_request(device, ExtractionMethod::kFast);
  JobHandle batch =
      jobs.submit(request, order.options(Priority::kBatch, "batch"));
  JobHandle normal_a =
      jobs.submit(request, order.options(Priority::kNormal, "normal-a"));
  JobHandle interactive =
      jobs.submit(request,
                  order.options(Priority::kInteractive, "interactive"));
  JobHandle normal_b =
      jobs.submit(request, order.options(Priority::kNormal, "normal-b"));
  EXPECT_EQ(jobs.pending(), 4u);

  gate.release();
  jobs.wait_all();
  const std::vector<std::string> expected{"interactive", "normal-a",
                                          "normal-b", "batch"};
  EXPECT_EQ(order.labels, expected);
  // Reports are bit-identical to a synchronous run regardless of the
  // scheduling class (each job builds its own backend).
  const ExtractionEngine engine;
  expect_reports_identical(batch.wait(), engine.run(request));
  expect_reports_identical(interactive.wait(), engine.run(request));
}

TEST(JobQueueTest, AgingPromotesBatchJobsPastFreshInteractiveWork) {
  // Anti-starvation: a kBatch job is promoted one class per
  // kAgingDispatches dispatches that bypass it, so a saturating interactive
  // stream cannot hold it back forever. With the default of 4, a batch job
  // submitted first runs after exactly 2 * 4 = 8 bypasses.
  const BuiltDevice device = test_device();
  ThreadPool pool(1);
  JobQueue jobs(&pool);
  WorkerGate gate(pool);
  DispatchOrder order;

  const ExtractionRequest request =
      device_request(device, ExtractionMethod::kFast);
  (void)jobs.submit(request, order.options(Priority::kBatch, "batch"));
  constexpr int kInteractiveJobs = 10;
  for (int i = 0; i < kInteractiveJobs; ++i)
    (void)jobs.submit(request, order.options(Priority::kInteractive,
                                             "i" + std::to_string(i)));

  gate.release();
  jobs.wait_all();
  std::vector<std::string> expected;
  for (int i = 0; i < 8; ++i) expected.push_back("i" + std::to_string(i));
  expected.push_back("batch");  // aged to kInteractive, older seq wins
  expected.push_back("i8");
  expected.push_back("i9");
  EXPECT_EQ(order.labels, expected);
}

TEST(JobQueueTest, ProgressEventsStreamInPipelineOrder) {
  // The progress stream must be ordered (strictly increasing sequence,
  // non-decreasing probes and elapsed) and follow the pipeline's stage
  // order, on a single-worker queue and on a 4-worker queue alike; the
  // handle's final snapshot is the last event delivered.
  const BuiltDevice device = test_device();
  for (const std::size_t workers : {1u, 4u}) {
    ThreadPool pool(workers);
    JobQueue jobs(&pool);

    std::mutex events_mutex;
    std::vector<ProgressEvent> events;
    SubmitOptions options;
    options.on_progress = [&](const ProgressEvent& event) {
      std::lock_guard<std::mutex> lock(events_mutex);
      events.push_back(event);
    };
    JobHandle handle = jobs.submit(
        device_request(device, ExtractionMethod::kFast), std::move(options));
    const ExtractionReport& report = handle.wait();
    ASSERT_TRUE(report.status.ok()) << report.status.message();

    std::lock_guard<std::mutex> lock(events_mutex);
    ASSERT_GE(events.size(), 3u) << "workers=" << workers;
    EXPECT_EQ(events.front().stage, "engine");
    EXPECT_EQ(events.front().probes_used, 0);
    const std::vector<std::string> stage_rank{"engine", "anchors", "sweeps",
                                              "fit"};
    auto rank_of = [&](const std::string& stage) {
      for (std::size_t r = 0; r < stage_rank.size(); ++r)
        if (stage_rank[r] == stage) return r;
      ADD_FAILURE() << "unexpected stage " << stage;
      return stage_rank.size();
    };
    for (std::size_t i = 0; i < events.size(); ++i) {
      EXPECT_EQ(events[i].sequence, i) << "workers=" << workers;
      if (i == 0) continue;
      EXPECT_GE(events[i].probes_used, events[i - 1].probes_used);
      EXPECT_GE(events[i].elapsed_seconds, events[i - 1].elapsed_seconds);
      EXPECT_GE(rank_of(events[i].stage), rank_of(events[i - 1].stage))
          << "stage " << events[i].stage << " after " << events[i - 1].stage;
    }
    const auto last = handle.progress();
    ASSERT_TRUE(last.has_value());
    EXPECT_EQ(last->sequence, events.back().sequence);
    EXPECT_EQ(last->stage, events.back().stage);
    // A job with a progress listener still produces the exact synchronous
    // report (the sink only adds boundary checks, which are bit-neutral).
    const ExtractionEngine engine;
    expect_reports_identical(
        report, engine.run(device_request(device, ExtractionMethod::kFast)));
  }
}

TEST(JobQueueTest, ArrayJobsRunThroughTheQueueUnchanged) {
  // run_array composes engine batches; the queue serves scalar requests. A
  // playback suite job through the queue must match the engine run exactly
  // (spot check that queue plumbing does not disturb existing flows).
  const auto specs = qflow_suite_specs();
  const QflowBenchmarkSpec* smallest = &specs.front();
  for (const auto& spec : specs)
    if (spec.pixels < smallest->pixels) smallest = &spec;
  const QflowBenchmark benchmark = build_qflow_benchmark(*smallest);

  ExtractionRequest request;
  request.playback.csd = &benchmark.csd;
  request.label = benchmark.name();

  const ExtractionEngine engine;
  const ExtractionReport direct = engine.run(request);
  JobQueue jobs;
  const ExtractionReport queued = jobs.submit(request).wait();
  expect_reports_identical(queued, direct);
  EXPECT_EQ(queued.label, benchmark.name());
}

}  // namespace
}  // namespace qvg
