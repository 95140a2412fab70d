#include "service/job_queue.hpp"

#include "common/assert.hpp"

#include <algorithm>
#include <exception>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace qvg {

const char* priority_name(Priority priority) noexcept {
  switch (priority) {
    case Priority::kInteractive: return "interactive";
    case Priority::kNormal: return "normal";
    case Priority::kBatch: return "batch";
  }
  return "unknown";
}

struct JobHandle::State {
  std::size_t id = 0;
  CancelToken cancel;
  ProgressSink progress;
  mutable std::mutex mutex;
  mutable std::condition_variable cv;
  bool done = false;
  ExtractionReport report;
};

std::size_t JobHandle::id() const noexcept { return state_ ? state_->id : 0; }

bool JobHandle::done() const {
  if (!state_) return false;
  std::lock_guard<std::mutex> lock(state_->mutex);
  return state_->done;
}

bool JobHandle::cancel() const {
  if (!state_) return false;
  // Fire the token under the same mutex the completion path takes before
  // publishing the report, making check-and-fire atomic with respect to
  // completion: a true return means the request strictly preceded the
  // report, a false return means the job had already finished and the
  // request had no effect. (The pre-fix code flipped the flag first and
  // read `done` after — a job finishing in between could report kCancelled
  // *caused by this call* while the call returned false.)
  std::lock_guard<std::mutex> lock(state_->mutex);
  if (state_->done) return false;
  state_->cancel.cancel();
  return true;
}

std::optional<ProgressEvent> JobHandle::progress() const {
  if (!state_) return std::nullopt;
  return state_->progress.latest();
}

std::optional<ExtractionReport> JobHandle::try_report() const {
  if (!state_) return std::nullopt;
  std::lock_guard<std::mutex> lock(state_->mutex);
  if (!state_->done) return std::nullopt;
  return state_->report;
}

const ExtractionReport& JobHandle::wait() const& {
  QVG_EXPECTS(state_ != nullptr);
  std::unique_lock<std::mutex> lock(state_->mutex);
  state_->cv.wait(lock, [&] { return state_->done; });
  return state_->report;
}

ExtractionReport JobHandle::wait() && {
  const JobHandle& self = *this;
  return self.wait();
}

/// Queue-wide state, shared with the posted drain tasks: accounting (so the
/// queue can be destroyed only after every task has finished), the
/// priority-ordered pending list the tasks pop from, and the per-tenant
/// fairness/admission bookkeeping.
struct JobQueue::Shared {
  /// One not-yet-dispatched job.
  struct Pending {
    ExtractionRequest request;
    std::shared_ptr<JobHandle::State> state;
    Priority priority = Priority::kNormal;
    std::string tenant;
    std::size_t seq = 0;               // submission order: FIFO tiebreak
    std::size_t enqueue_dispatch = 0;  // dispatch_count at submission
    int max_job_retries = 0;           // hard-fault re-runs (SubmitOptions)
  };

  /// Per-tenant fairness state + counters. Tenants are never removed.
  struct Tenant {
    TenantConfig config;
    /// Deficit-weighted dispatch clock: 1/weight accrued per dispatched
    /// job. The backlogged tenant with the least virtual work is served
    /// next, so long-run dispatch shares converge to the weights.
    double virtual_work = 0.0;
    std::size_t submitted = 0;
    std::size_t dispatched = 0;
    std::size_t completed = 0;
    std::size_t rejected = 0;
    std::size_t pending = 0;
  };

  mutable std::mutex mutex;
  mutable std::condition_variable all_done_cv;
  std::size_t next_id = 0;     // handle ids (accepted + rejected jobs)
  std::size_t submitted = 0;   // accepted jobs only
  std::size_t completed = 0;
  std::size_t rejected = 0;    // shed at admission, never dispatched
  std::size_t dispatch_count = 0;  // jobs handed to workers so far
  std::size_t max_pending = 0;     // queue-wide shed bound (0 = unlimited)
  // Driver aggregates across completed jobs (see QueueStats).
  long driver_batches = 0;
  long driver_aborted_transfers = 0;
  long driver_max_inflight = 0;
  double transport_stall_seconds = 0.0;
  std::vector<Pending> pending;
  /// Ordered map: deterministic lexicographic tie-break on equal
  /// virtual_work, and stats() reports tenants sorted by name for free.
  std::map<std::string, Tenant> tenants;

  /// The tenant record, created with the default config on first use.
  [[nodiscard]] Tenant& tenant_of(const std::string& name) {
    return tenants.try_emplace(name).first->second;
  }

  /// Effective priority class after aging: one class better per
  /// kAgingDispatches jobs dispatched since this one was enqueued. Bounded
  /// bypass count = no starvation, and fully deterministic (aging advances
  /// with dispatches, not wall time, so single-threaded tests can pin the
  /// exact order).
  [[nodiscard]] std::size_t effective_level(const Pending& job) const {
    const auto base = static_cast<std::size_t>(job.priority);
    const std::size_t aged =
        (dispatch_count - job.enqueue_dispatch) / kAgingDispatches;
    return aged >= base ? 0 : base - aged;
  }

  /// Pop the best pending job. Two-level selection: the backlogged tenant
  /// with the least virtual work (ties: lexicographically first name), then
  /// the lowest effective level / lowest seq within that tenant. Call with
  /// the mutex held; pending must not be empty.
  [[nodiscard]] Pending pop_best() {
    const Tenant* chosen = nullptr;
    const std::string* chosen_name = nullptr;
    for (const auto& [name, tenant] : tenants) {
      if (tenant.pending == 0) continue;
      if (chosen == nullptr || tenant.virtual_work < chosen->virtual_work) {
        chosen = &tenant;
        chosen_name = &name;
      }
    }
    QVG_ASSERT(chosen != nullptr);

    std::size_t best = pending.size();
    for (std::size_t i = 0; i < pending.size(); ++i) {
      if (pending[i].tenant != *chosen_name) continue;
      if (best == pending.size()) {
        best = i;
        continue;
      }
      const std::size_t lhs = effective_level(pending[i]);
      const std::size_t rhs = effective_level(pending[best]);
      if (lhs < rhs || (lhs == rhs && pending[i].seq < pending[best].seq))
        best = i;
    }
    QVG_ASSERT(best < pending.size());
    Pending job = std::move(pending[best]);
    pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(best));
    ++dispatch_count;
    Tenant& tenant = tenant_of(job.tenant);
    tenant.virtual_work += 1.0 / tenant.config.weight;
    ++tenant.dispatched;
    --tenant.pending;
    return job;
  }

  /// Least virtual work over tenants with a backlog; +inf when none.
  [[nodiscard]] double min_active_virtual_work() const {
    double least = std::numeric_limits<double>::infinity();
    for (const auto& [name, tenant] : tenants)
      if (tenant.pending > 0) least = std::min(least, tenant.virtual_work);
    return least;
  }
};

JobQueue::JobQueue(ThreadPool* pool)
    : pool_(pool != nullptr ? pool : &ThreadPool::global()),
      shared_(std::make_shared<Shared>()) {}

JobQueue::~JobQueue() { wait_all(); }

void JobQueue::configure_tenant(const std::string& tenant,
                                TenantConfig config) {
  QVG_EXPECTS(config.weight > 0.0);
  std::lock_guard<std::mutex> lock(shared_->mutex);
  shared_->tenant_of(tenant).config = std::move(config);
}

void JobQueue::set_max_pending(std::size_t max_pending) {
  std::lock_guard<std::mutex> lock(shared_->mutex);
  shared_->max_pending = max_pending;
}

namespace {

/// Fold a per-job admission cap into a request budget: the tighter bound
/// wins field by field (an unset request field takes the cap outright).
void fold_budget_cap(const Budget& cap, Budget& budget) {
  if (cap.max_probes > 0 &&
      (budget.max_probes <= 0 || budget.max_probes > cap.max_probes))
    budget.max_probes = cap.max_probes;
  if (cap.max_wall_seconds > 0.0 &&
      (budget.max_wall_seconds <= 0.0 ||
       budget.max_wall_seconds > cap.max_wall_seconds))
    budget.max_wall_seconds = cap.max_wall_seconds;
}

}  // namespace

JobHandle JobQueue::submit(ExtractionRequest request, SubmitOptions options) {
  auto state = std::make_shared<JobHandle::State>();
  state->cancel =
      options.cancel.can_cancel() ? options.cancel : CancelToken::make();
  state->progress = ProgressSink::make(std::move(options.on_progress));

  {
    std::lock_guard<std::mutex> lock(shared_->mutex);
    state->id = shared_->next_id++;
    if (request.label.empty())
      request.label = "job-" + std::to_string(state->id);
    Shared::Tenant& tenant = shared_->tenant_of(options.tenant);

    // Load shedding happens at admission, before the job can consume a
    // pending slot or a drain task: the handle comes back already done with
    // a typed kOverloaded report and zero probes. Rejected jobs are not
    // counted as submitted (wait_all must not wait for jobs that will never
    // run).
    const bool tenant_full = tenant.config.max_pending > 0 &&
                             tenant.pending >= tenant.config.max_pending;
    const bool queue_full = shared_->max_pending > 0 &&
                            shared_->pending.size() >= shared_->max_pending;
    if (tenant_full || queue_full) {
      ++tenant.rejected;
      ++shared_->rejected;
      ExtractionReport report;
      report.label = request.label;
      report.method = request.method;
      report.status = Status::failure(
          ErrorCode::kOverloaded, "queue",
          tenant_full
              ? "tenant '" + options.tenant + "' backlog at its bound (" +
                    std::to_string(tenant.config.max_pending) + " pending)"
              : "queue backlog at its bound (" +
                    std::to_string(shared_->max_pending) + " pending)");
      std::lock_guard<std::mutex> state_lock(state->mutex);
      state->report = std::move(report);
      state->done = true;
      return JobHandle(std::move(state));
    }

    // Admission control through the existing Budget machinery: the tenant's
    // per-job cap tightens the request's own budget.
    fold_budget_cap(tenant.config.job_budget, request.budget);

    ++shared_->submitted;
    ++tenant.submitted;
    // A tenant re-entering the backlog must not spend credit banked while
    // idle (it would monopolize dispatch until its clock caught up): clamp
    // its virtual-work clock forward to the least backlogged tenant's.
    if (tenant.pending == 0) {
      const double floor_work = shared_->min_active_virtual_work();
      if (floor_work != std::numeric_limits<double>::infinity())
        tenant.virtual_work = std::max(tenant.virtual_work, floor_work);
    }
    ++tenant.pending;
    shared_->pending.push_back(Shared::Pending{
        std::move(request), state, options.priority, options.tenant,
        state->id, shared_->dispatch_count, options.max_job_retries});
  }

  // One generic drain task per submission: it pops the *best* pending job at
  // the moment a worker becomes free, so priorities take effect at dispatch
  // time, not submission time. The task owns copies of everything it touches
  // (the engine and shared queue state; job state and request live in
  // the pending list), so it is safe whether it runs inline now or on a
  // worker after submit() returned — even past this queue's lifetime end
  // (the destructor additionally drains all jobs).
  pool_->post([engine = engine_, shared = shared_] {
    Shared::Pending job;
    {
      std::lock_guard<std::mutex> lock(shared->mutex);
      QVG_ASSERT(!shared->pending.empty());  // one drain task per submission
      job = shared->pop_best();
    }

    ExtractionReport report;
    try {
      report = engine.run(job.request, job.state->cancel, job.state->progress);
      // Job-level hard-fault retry: the probe layer already exhausted its
      // batch retries, so re-running under the *same* fault schedule would
      // fail identically — each re-run bumps the schedule seed by the
      // attempt number instead (deterministically fresh weather). Cancelled
      // / expired / domain failures never re-run.
      for (int attempt = 1;
           attempt <= job.max_job_retries &&
           report.status.code() == ErrorCode::kProbeHardFault &&
           !job.state->cancel.cancelled();
           ++attempt) {
        ExtractionRequest rerun = job.request;
        rerun.faults.seed += static_cast<std::uint64_t>(attempt);
        report = engine.run(rerun, job.state->cancel, job.state->progress);
        report.job_attempts = attempt + 1;
      }
    } catch (const std::exception& e) {
      // Tasks must not throw out of the pool; surface the fault as a typed
      // report instead of taking the process down.
      report.label = job.request.label;
      report.method = job.request.method;
      report.status = Status::failure(ErrorCode::kInternal, "queue", e.what());
    }
    // Counter bump and report publication must be one atomic step (shared
    // before state, same order as the shed path): a client that sees the
    // report as done must never read a /stats snapshot that hasn't counted
    // the job as completed yet.
    {
      std::lock_guard<std::mutex> shared_lock(shared->mutex);
      // Fold the job's driver counters into the queue-wide aggregates
      // before publishing, so /stats and the report agree on the totals.
      const FaultStats& fs = report.fault_stats;
      shared->driver_batches += fs.driver_batches;
      shared->driver_aborted_transfers += fs.driver_aborted_transfers;
      shared->driver_max_inflight =
          std::max(shared->driver_max_inflight, fs.driver_max_inflight);
      shared->transport_stall_seconds += fs.transport_stall_seconds;
      {
        std::lock_guard<std::mutex> lock(job.state->mutex);
        job.state->report = std::move(report);
        job.state->done = true;
      }
      ++shared->completed;
      ++shared->tenant_of(job.tenant).completed;
    }
    job.state->cv.notify_all();
    shared->all_done_cv.notify_all();
  });
  return JobHandle(std::move(state));
}

JobHandle JobQueue::submit(ExtractionRequest request, CancelToken cancel) {
  SubmitOptions options;
  options.cancel = std::move(cancel);
  return submit(std::move(request), std::move(options));
}

void JobQueue::wait_all() const {
  std::unique_lock<std::mutex> lock(shared_->mutex);
  shared_->all_done_cv.wait(
      lock, [&] { return shared_->completed == shared_->submitted; });
}

std::size_t JobQueue::submitted() const {
  std::lock_guard<std::mutex> lock(shared_->mutex);
  return shared_->submitted;
}

std::size_t JobQueue::completed() const {
  std::lock_guard<std::mutex> lock(shared_->mutex);
  return shared_->completed;
}

std::size_t JobQueue::pending() const {
  std::lock_guard<std::mutex> lock(shared_->mutex);
  return shared_->pending.size();
}

QueueStats JobQueue::stats() const {
  std::lock_guard<std::mutex> lock(shared_->mutex);
  QueueStats stats;
  stats.submitted = shared_->submitted;
  stats.completed = shared_->completed;
  stats.pending = shared_->pending.size();
  stats.rejected = shared_->rejected;
  stats.driver_batches = shared_->driver_batches;
  stats.driver_aborted_transfers = shared_->driver_aborted_transfers;
  stats.driver_max_inflight = shared_->driver_max_inflight;
  stats.transport_stall_seconds = shared_->transport_stall_seconds;
  stats.tenants.reserve(shared_->tenants.size());
  for (const auto& [name, tenant] : shared_->tenants) {
    TenantStats row;
    row.tenant = name;
    row.weight = tenant.config.weight;
    row.submitted = tenant.submitted;
    row.dispatched = tenant.dispatched;
    row.completed = tenant.completed;
    row.rejected = tenant.rejected;
    row.pending = tenant.pending;
    stats.tenants.push_back(std::move(row));
  }
  return stats;
}

}  // namespace qvg
