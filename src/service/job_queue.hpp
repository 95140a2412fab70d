// Asynchronous, priority-scheduled job submission for the ExtractionEngine.
//
// A tuning service cannot serve heavy traffic with synchronous batch calls:
// it must accept jobs as they arrive, serve interactive requests ahead of
// bulk re-tuning sweeps, cancel jobs that became redundant, enforce
// per-request deadlines, and stream progress while long jobs run. JobQueue
// is that front door:
//
//   JobQueue jobs;
//   JobHandle handle = jobs.submit(request);            // returns immediately
//   JobHandle urgent = jobs.submit(request2, {.priority = Priority::kInteractive});
//   ...
//   handle.cancel();                                    // stops it cooperatively
//   const ExtractionReport& report = handle.wait();     // or try_report()
//
// Scheduling: submission enqueues the request in the queue's own pending
// list and posts one generic drain task to the ThreadPool; each drain task
// pops the best pending job at the moment a worker picks it up. Selection
// is two-level (multi-tenant weighted fairness, PR 8): first the *tenant*,
// by deficit-weighted dispatch — each tenant accrues 1/weight of "virtual
// work" per dispatched job and the backlogged tenant with the least
// virtual work is served next, so under saturation dispatch shares
// converge to the configured weights (ties break by tenant name; a tenant
// going idle is clamped forward on reactivation so it cannot bank credit).
// Then, *within* the tenant, the existing priority order (kInteractive <
// kNormal < kBatch, FIFO within a class) with aging: a pending job is
// promoted one class for every kAgingDispatches jobs dispatched past it,
// so a kBatch job under a saturating interactive stream still runs after a
// bounded number of bypasses. Every job belongs to a tenant
// (SubmitOptions::tenant; the empty default tenant has weight 1), so a
// queue used without tenants schedules exactly as before. Admission
// control: configure_tenant attaches per-job Budget caps (folded into each
// request, tighter field wins) and a max_pending backlog bound — a submit
// past the bound (or past set_max_pending's queue-wide bound) is shed with
// a typed kOverloaded report instead of being queued. On a pool with no
// workers submission degrades to synchronous execution inside submit()
// (priority cannot reorder anything — each job completes before the next
// is submitted); the handle API behaves identically.
//
// Execution: jobs run as fire-and-forget tasks on the ThreadPool (JobQueue
// itself owns no threads), and — via the pool's cooperative scheduler — a
// job's nested parallel loops (raster rows, array pairs) fan out across the
// pool's idle workers instead of running inline-serial on the one worker
// that picked the job up. Each job builds its own backend source, so the
// drain order cannot change results: an uncancelled job's report is
// bit-identical to calling ExtractionEngine::run(request) synchronously,
// regardless of priority class, thread count, or queue pressure.
//
// Cancellation and deadlines thread down to the probe loops through the
// AcquisitionContext, so an interrupted job stops between probe batches
// (never mid-batch) and reports a typed kCancelled / kDeadlineExceeded /
// kBudgetExhausted Status with the ProbeStats of the partial run. The same
// batch boundaries feed each job's ProgressSink, and
// SubmitOptions::on_progress streams every event as it happens.
#pragma once

#include "common/cancellation.hpp"
#include "common/thread_pool.hpp"
#include "probe/progress.hpp"
#include "service/extraction_engine.hpp"

#include <condition_variable>
#include <cstddef>
#include <memory>
#include <mutex>
#include <optional>

namespace qvg {

class JobQueue;

/// Scheduling class of a submitted job. Lower value = served first;
/// aging promotes a bypassed job one class per kAgingDispatches dispatches.
enum class Priority {
  kInteractive = 0,  // operator-facing: jump the queue
  kNormal = 1,       // default
  kBatch = 2,        // bulk sweeps: yield to everything (until aged)
};

/// Stable name for logs/reports ("interactive", "normal", "batch").
[[nodiscard]] const char* priority_name(Priority priority) noexcept;

/// Per-submission options (all optional).
struct SubmitOptions {
  Priority priority = Priority::kNormal;
  /// Tenant this job is accounted to. Tenants are the unit of weighted
  /// fairness and admission control (see JobQueue::configure_tenant); the
  /// empty name is the default tenant (weight 1, no quotas). Submitting
  /// under an unconfigured name lazily creates a default-configured tenant.
  std::string tenant;
  /// Pre-wired cancellation (e.g. cancel before the queue can start the
  /// job); by default each job gets its own fresh token, reachable through
  /// JobHandle::cancel().
  CancelToken cancel;
  /// Streaming progress callback, invoked serialized and in order for every
  /// stage/batch boundary the job crosses. Runs on the job's thread: keep it
  /// fast, do not block on the job itself.
  ProgressSink::Callback on_progress;
  /// Job-level retry for probe hard faults: when the report comes back
  /// kProbeHardFault (the probe layer's retries were already exhausted),
  /// re-run the whole job up to this many more times. Each re-run bumps the
  /// request's FaultSchedule seed by the attempt number — deterministically
  /// fresh fault weather, the job-level analogue of a backoff-and-retry
  /// (same weather would fail identically). Other failure codes never
  /// re-run. The final report's job_attempts counts the runs.
  int max_job_retries = 0;
};

/// Caller-side handle on one submitted job. Copies share the job state; a
/// default-constructed handle is empty (valid() == false).
class JobHandle {
 public:
  JobHandle() = default;

  [[nodiscard]] bool valid() const noexcept { return state_ != nullptr; }
  /// Queue-assigned job id (submission order, starting at 0).
  [[nodiscard]] std::size_t id() const noexcept;

  /// Whether the job has finished (completed, failed, or interrupted).
  [[nodiscard]] bool done() const;

  /// Request cooperative cancellation. Returns true iff the request could
  /// still be observed by the job — i.e. it was delivered before the job
  /// published its report (a job not yet started reports kCancelled with
  /// zero probes; a running one stops at its next probe-batch boundary,
  /// though it may still complete normally if it was already past its last
  /// check). Returns false iff the job had already finished, in which case
  /// the call had no effect. The check-and-fire is atomic with respect to
  /// job completion, so a false return can never accompany a cancellation
  /// this call caused.
  bool cancel() const;

  /// The report when the job has finished; std::nullopt while it runs.
  [[nodiscard]] std::optional<ExtractionReport> try_report() const;

  /// Block until the job finishes and return its report. The reference
  /// stays valid while any handle copy is alive; calling on a temporary
  /// handle (e.g. `queue.submit(r).wait()`) therefore returns by value.
  [[nodiscard]] const ExtractionReport& wait() const&;
  [[nodiscard]] ExtractionReport wait() &&;

 private:
  friend class JobQueue;
  struct State;
  explicit JobHandle(std::shared_ptr<State> state) : state_(std::move(state)) {}
  std::shared_ptr<State> state_;
};

/// Per-tenant scheduling weight and admission quotas (multi-tenant weighted
/// fairness, PR 8). All fields optional; the default is weight 1 with no
/// quotas — indistinguishable from the pre-tenant queue.
struct TenantConfig {
  /// Relative dispatch share under contention: a weight-2 tenant with a
  /// saturated backlog is dispatched twice as often as a weight-1 tenant.
  /// Must be > 0.
  double weight = 1.0;
  /// Admission control through the existing Budget machinery: a per-job cap
  /// folded into every submitted request's budget (the tighter of the two
  /// wins, field by field). Zero fields = no cap.
  Budget job_budget;
  /// Load shedding: a submit while this tenant already has max_pending jobs
  /// waiting is rejected with a typed kOverloaded report (the job never
  /// runs). 0 = unlimited.
  std::size_t max_pending = 0;
};

/// Snapshot of one tenant's accounting (see JobQueue::stats).
struct TenantStats {
  std::string tenant;
  double weight = 1.0;
  std::size_t submitted = 0;   // accepted jobs
  std::size_t dispatched = 0;  // handed to a worker
  std::size_t completed = 0;   // report published
  std::size_t rejected = 0;    // shed at admission (kOverloaded)
  std::size_t pending = 0;     // accepted, not yet dispatched
};

/// Queue-wide + per-tenant counters, one consistent snapshot. Feeds load
/// shedding decisions and the wire API's /stats endpoint; the dispatch
/// counters are what the fairness tests check against tenant weights.
struct QueueStats {
  std::size_t submitted = 0;
  std::size_t completed = 0;
  /// Jobs accepted but not yet picked up by a worker.
  std::size_t pending = 0;
  std::size_t rejected = 0;
  /// Instrument-driver aggregates, accumulated from the FaultStats of every
  /// completed job (all zero until a job runs with transport enabled):
  /// transfers executed / aborted at the driver boundary, the largest
  /// request-ring occupancy any job saw, and total transport time charged.
  long driver_batches = 0;
  long driver_aborted_transfers = 0;
  long driver_max_inflight = 0;
  double transport_stall_seconds = 0.0;
  /// Sorted by tenant name; the default tenant is "".
  std::vector<TenantStats> tenants;
};

class JobQueue {
 public:
  /// A pending job is promoted one priority class after this many jobs have
  /// been dispatched past it (so a kBatch job is bypassed at most
  /// 2 * kAgingDispatches times before it outranks fresh interactive work).
  static constexpr std::size_t kAgingDispatches = 4;

  /// `pool` overrides the ThreadPool the jobs run on (nullptr = the global
  /// pool; the override pins queue behaviour to a fixed worker count).
  explicit JobQueue(ThreadPool* pool = nullptr);
  /// Blocks until every submitted job has finished (their tasks capture
  /// queue state).
  ~JobQueue();
  JobQueue(const JobQueue&) = delete;
  JobQueue& operator=(const JobQueue&) = delete;

  /// Enqueue a request; returns immediately (unless the pool has no
  /// workers, in which case the job runs synchronously here). A request
  /// without a label gets "job-<id>". Thread-safe: any thread may submit.
  JobHandle submit(ExtractionRequest request, SubmitOptions options = {});
  /// Back-compat convenience: submit with a pre-wired token at kNormal.
  JobHandle submit(ExtractionRequest request, CancelToken cancel);

  /// Configure (or reconfigure) a tenant's weight and quotas. May be called
  /// at any time; affects jobs submitted afterwards (and the dispatch share
  /// of jobs already pending). config.weight must be > 0.
  void configure_tenant(const std::string& tenant, TenantConfig config);

  /// Queue-wide load-shedding bound: a submit while max_pending jobs are
  /// already waiting (across all tenants) is rejected with kOverloaded.
  /// 0 = unlimited (default).
  void set_max_pending(std::size_t max_pending);

  /// Block until every job submitted so far has finished.
  void wait_all() const;

  /// One consistent snapshot of the queue-wide and per-tenant counters.
  [[nodiscard]] QueueStats stats() const;

 private:
  struct Shared;
  ExtractionEngine engine_;
  ThreadPool* pool_;
  std::shared_ptr<Shared> shared_;
};

}  // namespace qvg
