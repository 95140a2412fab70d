// Fixed-size thread pool with a cooperative scheduler: blocking
// `parallel_for` over contiguous index ranges and a fire-and-forget `post()`
// task queue share the same workers. Several range jobs can be in flight at
// once (each caller participates in its own job), and — the part the async
// service layer depends on — a posted task may itself call `parallel_for`
// and fan out across the pool's idle workers instead of being forced to run
// its loops inline. The re-entrancy guard survives only where it is needed
// for correctness: a `parallel_for` issued from *inside a running chunk*
// still runs inline, so chunks can never deadlock waiting on their own pool.
//
// Used to row-parallelize the batched raster evaluation
// (DeviceSimulator::evaluate_raster) and the dense image scans of the
// Canny/Hough baseline; the service layer's JobQueue runs async extraction
// jobs through post(), and those jobs' nested rasters parallelize here too.
//
// All users split work so that each index writes disjoint output, which
// keeps parallel results bit-identical to serial ones regardless of thread
// count or chunk schedule.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

namespace qvg {

class ThreadPool {
 public:
  /// Spawn `thread_count` workers in addition to the calling thread;
  /// 0 means auto: the QVG_THREADS environment variable (total threads
  /// including the caller, clamped to 1024) when set to a positive
  /// integer, otherwise hardware_concurrency - 1 (so pool size == core
  /// count). QVG_THREADS makes multi-core re-measurement a one-variable
  /// experiment: QVG_THREADS=4 runs any program on four threads. Malformed
  /// or non-positive values fall back to hardware sizing.
  explicit ThreadPool(std::size_t thread_count = 0);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Workers plus the participating caller.
  [[nodiscard]] std::size_t size() const noexcept { return workers_.size() + 1; }

  using RangeFn = std::function<void(std::size_t, std::size_t)>;

  /// Run fn(lo, hi) over disjoint chunks covering [begin, end). Blocks until
  /// every chunk has finished; the calling thread executes chunks too, and
  /// idle workers join in — including when the caller is itself a pool
  /// worker running a posted task (the cooperative-scheduler case: an async
  /// job's nested raster fans out instead of degrading to serial). The first
  /// exception thrown by `fn` is rethrown here. Only a call made from
  /// *inside a chunk* runs inline (serially), which keeps genuinely
  /// re-entrant fan-out from deadlocking on its own pool.
  void parallel_for(std::size_t begin, std::size_t end, const RangeFn& fn,
                    std::size_t min_chunk = 1);

  /// Enqueue a fire-and-forget task. Tasks run on pool workers in FIFO order,
  /// interleaved with parallel_for chunks; idle workers prefer helping an
  /// in-flight parallel_for before starting the next task (so fan-out work
  /// finishes at low latency), but never twice in a row while tasks wait,
  /// so sustained parallel_for traffic cannot starve the task queue. A
  /// nested parallel_for made by a task
  /// participates in this pool (see parallel_for). When the pool has no
  /// workers the task runs inline in post() before it returns, so a
  /// single-threaded pool degrades to synchronous execution. Tasks must not
  /// throw, and must not block on other posted tasks (workers do not reenter
  /// the queue while a task runs). Tasks still queued when the pool is
  /// destroyed are dropped.
  void post(std::function<void()> task);

  /// Shared process-wide pool sized to the hardware.
  static ThreadPool& global();

 private:
  struct Job;
  void worker_loop();

  std::vector<std::thread> workers_;
  struct State;
  std::unique_ptr<State> state_;
};

/// Process-wide kill switch: when disabled, every parallel_for runs serially
/// on the calling thread. Used by the serial-vs-parallel equivalence tests.
void set_parallelism_enabled(bool enabled) noexcept;
[[nodiscard]] bool parallelism_enabled() noexcept;

/// Convenience: chunked parallel loop over [0, count) on the global pool.
/// Serial when parallelism is disabled, the pool has one thread, or the
/// range is smaller than `min_per_thread`.
void parallel_for_rows(std::size_t count, const ThreadPool::RangeFn& fn,
                       std::size_t min_per_thread = 8);

}  // namespace qvg
