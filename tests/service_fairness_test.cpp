// Multi-tenant weighted fairness and admission control (PR 8): pinned
// deterministic dispatch order under deficit-weighted scheduling, the
// activation clamp on idle tenants, per-tenant QueueStats accounting,
// Budget folding, and kOverloaded load shedding.
#include "service/job_queue.hpp"
#include "test_support.hpp"

#include <gtest/gtest.h>

#include <condition_variable>
#include <mutex>
#include <string>
#include <vector>

namespace qvg {
namespace {

const bool g_force_threads = testsupport::force_multithread_pool();

BuiltDevice test_device() {
  DotArrayParams params;
  params.n_dots = 2;
  params.cross_ratio = 0.25;
  params.jitter = 0.05;
  Rng jitter(7);
  return build_dot_array(params, &jitter);
}

ExtractionRequest device_request(const BuiltDevice& device) {
  ExtractionRequest request;
  request.method = ExtractionMethod::kFast;
  request.device.device = &device;
  request.device.noise_seed = 123;
  request.device.pixels_per_axis = 64;
  request.device.white_noise_sigma = 0.02;
  return request;
}

/// Holds a dedicated pool's single worker busy until release() — jobs
/// submitted while gated pile up pending, so the order once released is
/// exactly the scheduler's dispatch order.
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

/// Records each job's label at its first progress event (the "engine" entry
/// check), i.e. in dispatch order.
struct DispatchOrder {
  std::mutex mutex;
  std::vector<std::string> labels;

  SubmitOptions options(std::string tenant, std::string label_value,
                        Priority priority = Priority::kNormal) {
    SubmitOptions submit;
    submit.priority = priority;
    submit.tenant = std::move(tenant);
    submit.on_progress = [this, label = std::move(label_value)](
                             const ProgressEvent& event) {
      if (event.sequence != 0) return;
      std::lock_guard<std::mutex> lock(mutex);
      labels.push_back(label);
    };
    return submit;
  }
};

TEST(FairnessTest, DeficitWeightedDispatchIsPinnedDeterministic) {
  // Tenant "a" (weight 2) and "b" (weight 1), both saturated on a gated
  // single worker. Deficit accounting: a pays 0.5 virtual work per
  // dispatch, b pays 1.0; ties break lexicographically. The resulting
  // order is the exact sequence below — a gets 2 of every 3 dispatches.
  //
  //   virtual work after each dispatch (a, b), next = min, tie -> "a":
  //   start (0,0) -> a0 (.5,0) -> b0 (.5,1) -> a1 (1,1) -> a2 (1.5,1)
  //   -> b1 (1.5,2) -> a3 (2,2) -> a4 (2.5,2) -> b2 (2.5,3) -> a5 (3,3)
  const BuiltDevice device = test_device();
  ThreadPool pool(1);
  JobQueue jobs(&pool);
  jobs.configure_tenant("a", {.weight = 2.0});
  jobs.configure_tenant("b", {.weight = 1.0});
  WorkerGate gate(pool);
  DispatchOrder order;

  const ExtractionRequest request = device_request(device);
  for (int i = 0; i < 6; ++i)
    (void)jobs.submit(request, order.options("a", "a" + std::to_string(i)));
  for (int i = 0; i < 3; ++i)
    (void)jobs.submit(request, order.options("b", "b" + std::to_string(i)));
  EXPECT_EQ(jobs.pending(), 9u);

  gate.release();
  jobs.wait_all();
  const std::vector<std::string> expected{"a0", "b0", "a1", "a2", "b1",
                                          "a3", "a4", "b2", "a5"};
  EXPECT_EQ(order.labels, expected);
}

TEST(FairnessTest, PriorityAndAgingStillOrderWithinATenant) {
  // The PR 7 anti-starvation pinning, now riding inside one tenant of the
  // two-level scheduler: a kBatch job under a saturating interactive stream
  // is promoted one class per kAgingDispatches = 4 bypasses, so it runs
  // after exactly 8 of the 10 interactive jobs.
  const BuiltDevice device = test_device();
  ThreadPool pool(1);
  JobQueue jobs(&pool);
  WorkerGate gate(pool);
  DispatchOrder order;

  const ExtractionRequest request = device_request(device);
  (void)jobs.submit(request, order.options("", "batch", Priority::kBatch));
  for (int i = 0; i < 10; ++i)
    (void)jobs.submit(request, order.options("", "i" + std::to_string(i),
                                             Priority::kInteractive));

  gate.release();
  jobs.wait_all();
  std::vector<std::string> expected;
  for (int i = 0; i < 8; ++i) expected.push_back("i" + std::to_string(i));
  expected.push_back("batch");
  expected.push_back("i8");
  expected.push_back("i9");
  EXPECT_EQ(order.labels, expected);
}

TEST(FairnessTest, ReactivatedTenantCannotBankCredit) {
  // "idle" sits out the first burst; when it joins, the activation clamp
  // forwards its virtual work to the minimum among active tenants, so it
  // interleaves fairly from now on instead of draining its whole backlog
  // first on banked credit.
  const BuiltDevice device = test_device();
  ThreadPool pool(1);
  JobQueue jobs(&pool);
  jobs.configure_tenant("busy", {.weight = 1.0});
  jobs.configure_tenant("idle", {.weight = 1.0});

  // Phase 1: only "busy" has work; it accrues virtual work.
  {
    DispatchOrder warmup;
    for (int i = 0; i < 3; ++i)
      (void)jobs.submit(device_request(device),
                        warmup.options("busy", "w" + std::to_string(i)));
    jobs.wait_all();
  }

  // Phase 2: both backlogged behind the gate. Without the clamp "idle"
  // would run all three of its jobs first (virtual work 0 vs 3).
  WorkerGate gate(pool);
  DispatchOrder order;
  const ExtractionRequest request = device_request(device);
  for (int i = 0; i < 3; ++i)
    (void)jobs.submit(request, order.options("busy", "b" + std::to_string(i)));
  for (int i = 0; i < 3; ++i)
    (void)jobs.submit(request, order.options("idle", "i" + std::to_string(i)));
  gate.release();
  jobs.wait_all();

  // Clamped to equal virtual work, equal weights: strict alternation from
  // the tie-break ("busy" < "idle" lexicographically).
  const std::vector<std::string> expected{"b0", "i0", "b1", "i1", "b2", "i2"};
  EXPECT_EQ(order.labels, expected);
}

TEST(FairnessTest, QueueStatsTrackPerTenantCounters) {
  const BuiltDevice device = test_device();
  ThreadPool pool(1);
  JobQueue jobs(&pool);
  jobs.configure_tenant("a", {.weight = 2.0});
  jobs.configure_tenant("b", {.weight = 1.0, .max_pending = 1});

  WorkerGate gate(pool);
  const ExtractionRequest request = device_request(device);
  SubmitOptions to_a;
  to_a.tenant = "a";
  SubmitOptions to_b;
  to_b.tenant = "b";
  (void)jobs.submit(request, to_a);
  (void)jobs.submit(request, to_a);
  JobHandle accepted_b = jobs.submit(request, to_b);
  JobHandle shed_b = jobs.submit(request, to_b);  // over b's max_pending = 1

  {
    const QueueStats stats = jobs.stats();
    EXPECT_EQ(stats.submitted, 3u);
    EXPECT_EQ(stats.pending, 3u);
    EXPECT_EQ(stats.rejected, 1u);
    ASSERT_EQ(stats.tenants.size(), 2u);
    EXPECT_EQ(stats.tenants[0].tenant, "a");
    EXPECT_EQ(stats.tenants[0].weight, 2.0);
    EXPECT_EQ(stats.tenants[0].submitted, 2u);
    EXPECT_EQ(stats.tenants[0].pending, 2u);
    EXPECT_EQ(stats.tenants[0].rejected, 0u);
    EXPECT_EQ(stats.tenants[1].tenant, "b");
    EXPECT_EQ(stats.tenants[1].submitted, 1u);
    EXPECT_EQ(stats.tenants[1].pending, 1u);
    EXPECT_EQ(stats.tenants[1].rejected, 1u);
  }

  // The shed job is already done with a typed kOverloaded report and zero
  // probes; it never occupies a worker.
  ASSERT_TRUE(shed_b.done());
  ASSERT_TRUE(shed_b.try_report().has_value());
  EXPECT_EQ(shed_b.try_report()->status.code(), ErrorCode::kOverloaded);
  EXPECT_EQ(shed_b.try_report()->status.stage(), "queue");
  EXPECT_EQ(shed_b.try_report()->stats.unique_probes, 0);

  gate.release();
  jobs.wait_all();
  (void)accepted_b.wait();
  const QueueStats stats = jobs.stats();
  EXPECT_EQ(stats.completed, 3u);
  EXPECT_EQ(stats.pending, 0u);
  EXPECT_EQ(stats.tenants[0].dispatched, 2u);
  EXPECT_EQ(stats.tenants[0].completed, 2u);
  EXPECT_EQ(stats.tenants[1].dispatched, 1u);
  EXPECT_EQ(stats.tenants[1].completed, 1u);
}

TEST(FairnessTest, QueueWideMaxPendingShedsAcrossTenants) {
  const BuiltDevice device = test_device();
  ThreadPool pool(1);
  JobQueue jobs(&pool);
  jobs.set_max_pending(2);
  WorkerGate gate(pool);

  const ExtractionRequest request = device_request(device);
  SubmitOptions a;
  a.tenant = "a";
  SubmitOptions b;
  b.tenant = "b";
  (void)jobs.submit(request, a);
  (void)jobs.submit(request, b);
  JobHandle shed = jobs.submit(request, a);  // queue-wide bound hit
  ASSERT_TRUE(shed.done());
  EXPECT_EQ(shed.try_report()->status.code(), ErrorCode::kOverloaded);
  EXPECT_EQ(jobs.stats().rejected, 1u);

  gate.release();
  jobs.wait_all();
  EXPECT_EQ(jobs.completed(), 2u);
}

TEST(FairnessTest, TenantBudgetCapFoldsIntoEachRequest) {
  // The tenant cap (120 probes) is tighter than the request's own budget,
  // so the job ends kBudgetExhausted exactly as if the request had carried
  // the cap itself.
  const BuiltDevice device = test_device();
  JobQueue jobs;
  TenantConfig config;
  config.job_budget.max_probes = 120;
  jobs.configure_tenant("capped", config);

  ExtractionRequest request = device_request(device);
  request.budget.max_probes = 1000000;  // looser than the tenant cap
  SubmitOptions options;
  options.tenant = "capped";
  const ExtractionReport report = jobs.submit(request, options).wait();
  EXPECT_EQ(report.status.code(), ErrorCode::kBudgetExhausted);
  EXPECT_GE(report.stats.total_requests, 120);

  // The fold is field-wise: a tenant wall-clock cap bites a request that
  // only capped probes.
  TenantConfig wall_cap;
  wall_cap.job_budget.max_wall_seconds = 1e-12;
  jobs.configure_tenant("wall-capped", wall_cap);
  SubmitOptions wall_options;
  wall_options.tenant = "wall-capped";
  EXPECT_EQ(jobs.submit(device_request(device), wall_options).wait()
                .status.code(),
            ErrorCode::kDeadlineExceeded);

  // And a request budget tighter than the tenant cap survives the fold
  // (tighter of the two wins, in either direction).
  TenantConfig loose;
  loose.job_budget.max_probes = 1000000;
  jobs.configure_tenant("loose", loose);
  ExtractionRequest tight = device_request(device);
  tight.budget.max_probes = 120;
  SubmitOptions loose_options;
  loose_options.tenant = "loose";
  const ExtractionReport tight_report =
      jobs.submit(tight, loose_options).wait();
  EXPECT_EQ(tight_report.status.code(), ErrorCode::kBudgetExhausted);
}

TEST(FairnessTest, DefaultTenantSchedulesExactlyAsBeforeTenants) {
  // No configure_tenant calls, no SubmitOptions::tenant: one weight-1
  // default tenant, so the two-level scheduler reduces to the PR 5
  // priority/aging order (interactive, normal FIFO, batch).
  const BuiltDevice device = test_device();
  ThreadPool pool(1);
  JobQueue jobs(&pool);
  WorkerGate gate(pool);
  DispatchOrder order;

  const ExtractionRequest request = device_request(device);
  (void)jobs.submit(request, order.options("", "batch", Priority::kBatch));
  (void)jobs.submit(request, order.options("", "normal-a"));
  (void)jobs.submit(request,
                    order.options("", "interactive", Priority::kInteractive));
  (void)jobs.submit(request, order.options("", "normal-b"));

  gate.release();
  jobs.wait_all();
  const std::vector<std::string> expected{"interactive", "normal-a",
                                          "normal-b", "batch"};
  EXPECT_EQ(order.labels, expected);

  const QueueStats stats = jobs.stats();
  ASSERT_EQ(stats.tenants.size(), 1u);
  EXPECT_EQ(stats.tenants[0].tenant, "");
  EXPECT_EQ(stats.tenants[0].submitted, 4u);
  EXPECT_EQ(stats.tenants[0].completed, 4u);
}

}  // namespace
}  // namespace qvg
