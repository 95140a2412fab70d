// Fault tolerance at the service surface: the engine arms a FaultRecorder
// for active schedules and reports FaultStats, identical fault seeds produce
// bit-identical reports regardless of worker count or backend, inactive
// schedules leave the probe path untouched, and the JobQueue's job-level
// retry re-runs kProbeHardFault jobs under deterministically fresh weather.
#include "service/job_queue.hpp"
#include "test_support.hpp"

#include <gtest/gtest.h>

#include <memory>

namespace qvg {
namespace {

using testsupport::SyntheticCsdSpec;
using testsupport::make_synthetic_csd;

const bool g_force_threads = testsupport::force_multithread_pool();

void expect_reports_identical(const ExtractionReport& a,
                              const ExtractionReport& b) {
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.virtual_gates.alpha12, b.virtual_gates.alpha12);
  EXPECT_EQ(a.virtual_gates.alpha21, b.virtual_gates.alpha21);
  EXPECT_EQ(a.slope_steep, b.slope_steep);
  EXPECT_EQ(a.stats.unique_probes, b.stats.unique_probes);
  EXPECT_EQ(a.stats.total_requests, b.stats.total_requests);
  EXPECT_EQ(a.stats.simulated_seconds, b.stats.simulated_seconds);
  EXPECT_EQ(a.fault_stats, b.fault_stats);
  ASSERT_EQ(a.fast.probe_log.size(), b.fast.probe_log.size());
  for (std::size_t i = 0; i < a.fast.probe_log.size(); ++i)
    EXPECT_EQ(a.fast.probe_log[i], b.fast.probe_log[i]) << "probe " << i;
}

ExtractionRequest faulty_playback_request(const Csd& csd,
                                          std::uint64_t seed = 17) {
  ExtractionRequest request;
  request.playback.csd = &csd;
  request.faults.transient_rate = 0.1;
  request.faults.seed = seed;
  request.retry.jitter_fraction = 0.0;
  return request;
}

TEST(EngineFaultTest, ActiveScheduleReportsFaultStatsDeterministically) {
  const Csd csd = make_synthetic_csd(SyntheticCsdSpec{});
  ExtractionEngine engine;
  const ExtractionRequest request = faulty_playback_request(csd);

  const ExtractionReport first = engine.run(request);
  const ExtractionReport second = engine.run(request);

  ASSERT_TRUE(first.status.ok()) << first.status.detail();
  EXPECT_GT(first.fault_stats.transient_faults, 0);
  EXPECT_GT(first.fault_stats.retries, 0);
  EXPECT_GT(first.fault_stats.backoff_seconds, 0.0);
  EXPECT_EQ(first.fault_stats.drift_events, 0);
  EXPECT_EQ(first.job_attempts, 1);
  expect_reports_identical(first, second);
}

TEST(EngineFaultTest, AbsorbedTransientsLeaveTheExtractionResultClean) {
  // The same diagram with and without fault weather: every transient is
  // retried into the identical batch, so gates and probe log match the
  // fault-free run exactly — only the fault accounting and the sim clock
  // (backoff charge) differ.
  const Csd csd = make_synthetic_csd(SyntheticCsdSpec{});
  ExtractionEngine engine;

  ExtractionRequest plain;
  plain.playback.csd = &csd;
  const ExtractionReport clean = engine.run(plain);
  const ExtractionReport faulty = engine.run(faulty_playback_request(csd));

  ASSERT_TRUE(faulty.status.ok());
  EXPECT_EQ(clean.virtual_gates.alpha12, faulty.virtual_gates.alpha12);
  EXPECT_EQ(clean.virtual_gates.alpha21, faulty.virtual_gates.alpha21);
  EXPECT_EQ(clean.stats.unique_probes, faulty.stats.unique_probes);
  ASSERT_EQ(clean.fast.probe_log.size(), faulty.fast.probe_log.size());
  for (std::size_t i = 0; i < clean.fast.probe_log.size(); ++i)
    EXPECT_EQ(clean.fast.probe_log[i], faulty.fast.probe_log[i]);
  EXPECT_GT(faulty.stats.simulated_seconds, clean.stats.simulated_seconds);
}

TEST(EngineFaultTest, InactiveScheduleIsBitIdenticalToPlainRequest) {
  // A request that names a retry policy but no fault weather must not arm
  // anything: the report matches a default request bit for bit, FaultStats
  // all zero: an inactive schedule arms no fault plumbing.
  const Csd csd = make_synthetic_csd(SyntheticCsdSpec{.noise_sigma = 0.02});
  ExtractionEngine engine;

  ExtractionRequest plain;
  plain.playback.csd = &csd;
  ExtractionRequest with_policy = plain;
  with_policy.retry.max_attempts = 9;
  with_policy.retry.base_backoff_seconds = 3.0;

  const ExtractionReport a = engine.run(plain);
  const ExtractionReport b = engine.run(with_policy);
  expect_reports_identical(a, b);
  EXPECT_EQ(b.fault_stats, FaultStats{});
}

TEST(EngineFaultTest, IdenticalSeedIsBitIdenticalAcrossWorkerCounts) {
  // The same faulty request through queues on a 1-worker and a 4-worker
  // pool, on both backends: the fault stream rides the probe order, which
  // is invariant, so the reports must agree bit for bit.
  const Csd csd = make_synthetic_csd(SyntheticCsdSpec{});
  DotArrayParams params;
  params.n_dots = 2;
  const BuiltDevice device = build_dot_array(params);

  ExtractionRequest playback_request = faulty_playback_request(csd);
  ExtractionRequest device_request;
  device_request.device.device = &device;
  device_request.device.pixels_per_axis = 64;
  device_request.device.white_noise_sigma = 0.02;
  device_request.faults.transient_rate = 0.1;
  device_request.faults.seed = 17;
  device_request.retry.jitter_fraction = 0.0;

  for (const ExtractionRequest* request :
       {&playback_request, &device_request}) {
    ThreadPool narrow(1);
    ThreadPool wide(4);
    JobQueue narrow_jobs(&narrow);
    JobQueue wide_jobs(&wide);
    const ExtractionReport a = narrow_jobs.submit(*request).wait();
    const ExtractionReport b = wide_jobs.submit(*request).wait();
    ASSERT_TRUE(a.status.ok()) << a.status.detail();
    EXPECT_GT(a.fault_stats.transient_faults, 0);
    expect_reports_identical(a, b);
  }
}

TEST(JobQueueFaultTest, JobLevelRetryRecoversHardFaultWithFreshSeed) {
  // hard_fault_rate 0.02 at seed 8 draws a hard fault mid-run; the re-run
  // bumps the seed to 9, whose weather never does. One job-level retry turns
  // the failure into a success with job_attempts == 2.
  const Csd csd = make_synthetic_csd(SyntheticCsdSpec{});
  ExtractionRequest request;
  request.playback.csd = &csd;
  request.faults.hard_fault_rate = 0.02;
  request.faults.seed = 8;

  JobQueue jobs;
  SubmitOptions options;
  options.max_job_retries = 2;
  const ExtractionReport report =
      jobs.submit(request, std::move(options)).wait();

  ASSERT_TRUE(report.status.ok()) << report.status.detail();
  EXPECT_EQ(report.job_attempts, 2);
}

TEST(JobQueueFaultTest, WithoutJobRetriesHardFaultSurfacesTyped) {
  const Csd csd = make_synthetic_csd(SyntheticCsdSpec{});
  ExtractionRequest request;
  request.playback.csd = &csd;
  request.faults.hard_fault_rate = 0.02;
  request.faults.seed = 8;

  JobQueue jobs;
  const ExtractionReport report = jobs.submit(request).wait();

  EXPECT_EQ(report.status.code(), ErrorCode::kProbeHardFault);
  EXPECT_EQ(report.job_attempts, 1);
  EXPECT_GT(report.stats.total_requests, 0);  // partial run is reported
}

TEST(JobQueueFaultTest, PreCancelledJobNeverConsumesItsRetryBudget) {
  const Csd csd = make_synthetic_csd(SyntheticCsdSpec{});
  ExtractionRequest request;
  request.playback.csd = &csd;
  request.faults.hard_fault_rate = 1.0;  // would hard-fault instantly

  JobQueue jobs;
  SubmitOptions options;
  options.cancel = CancelToken::make();
  options.cancel.cancel();
  options.max_job_retries = 3;
  const ExtractionReport report =
      jobs.submit(request, std::move(options)).wait();

  EXPECT_EQ(report.status.code(), ErrorCode::kCancelled);
  EXPECT_EQ(report.job_attempts, 1);
  EXPECT_EQ(report.stats.unique_probes, 0);
}

}  // namespace
}  // namespace qvg
