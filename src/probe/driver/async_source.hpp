// The instrument-driver boundary of the acquisition path.
//
// A real instrument sits behind a command link, so the engine *submits*
// transfers and consumes completions, the producer/consumer shape of a DMA
// device driver. AsyncCurrentSource is that interface: submit(batch) returns
// a CompletionHandle immediately, up to depth() batches ride in flight, and
// every completion carries the ProbeOutcome plus the source's probe count
// observed right after the batch executed. Probe stages do not drive it by
// hand: BatchPipeline (batch_pipeline.hpp) owns the in-flight window, the
// completion-carried probe accounting and the abort on early return, and
// ProbeLane picks the implementation for a job.
//
// Two implementations exist:
//   * SyncSourceAdapter — executes each batch inline at submit() (depth 1).
//     Every existing backend (DeviceSimulator, CsdPlayback, ProbeCache,
//     FaultInjectingCurrentSource) runs unchanged behind it, call for call
//     and bit for bit identical to calling probe_with_retry directly. This
//     is the default lane (TransportOptions::io_depth == 0).
//   * InstrumentDriver (instrument_driver.hpp) — a bounded request ring and
//     a simulated transport for jobs that model a slow link (io_depth >= 1).
//     Queued batches run on the caller's thread, oldest first, when a
//     handle is waited or when a full ring takes a submit.
#pragma once

#include "probe/acquisition_context.hpp"
#include "probe/current_source.hpp"
#include "probe/retry_policy.hpp"

#include <memory>
#include <span>

namespace qvg {

class InstrumentDriver;

/// One finished transfer. `outcome` is exactly what probe_with_retry
/// returned for the batch; `probes_after` is the driving source's
/// probe_count() sampled immediately after the successful attempt (0 when
/// the batch failed or was aborted before executing).
struct BatchCompletion {
  ProbeOutcome outcome;
  long probes_after = 0;
};

/// Waitable handle on one submitted batch (shared-state, copyable). A
/// default-constructed handle is invalid; wait() on it throws
/// ContractViolation. Handles belong to the thread that submitted them.
class CompletionHandle {
 public:
  CompletionHandle() = default;

  [[nodiscard]] bool valid() const noexcept { return state_ != nullptr; }

  /// Complete the batch and return its completion: immediately for the sync
  /// adapter, otherwise by running the owning driver's ring through this
  /// batch. The reference stays valid for the handle's lifetime; repeated
  /// calls return the same completion.
  [[nodiscard]] const BatchCompletion& wait() const;

 private:
  friend class SyncSourceAdapter;
  friend class InstrumentDriver;

  struct State {
    bool done = false;
    BatchCompletion completion;
    /// The driver whose ring holds the batch while it is pending; null once
    /// done.
    InstrumentDriver* owner = nullptr;
  };

  explicit CompletionHandle(std::shared_ptr<State> state)
      : state_(std::move(state)) {}

  std::shared_ptr<State> state_;
};

/// Asynchronous submission interface over a CurrentSource. Batches execute
/// in submission order (completions never reorder), each through
/// probe_with_retry under the submitting context, so the traffic an inner
/// source (or ProbeCache) observes is identical to the synchronous loops'.
class AsyncCurrentSource {
 public:
  virtual ~AsyncCurrentSource() = default;

  /// Submit one batch. `points` and `out` must stay valid (and `out` must
  /// not be written by the caller) until the returned handle's completion
  /// has been waited. When depth() batches are already in flight, the
  /// oldest one completes first (ring backpressure).
  [[nodiscard]] virtual CompletionHandle submit(
      std::span<const Point2> points, std::span<double> out,
      const AcquisitionContext& context, const char* stage) = 0;

  /// Abort everything currently in flight: queued batches complete with
  /// kCancelled without executing. Later submissions run normally.
  virtual void abort_inflight() = 0;

  /// Maximum batches in flight at once (1 for the sync adapter).
  [[nodiscard]] virtual long depth() const = 0;

  /// The source's probe_count() after the last completed batch. Only
  /// meaningful when nothing is in flight; pipelined loops use
  /// BatchCompletion::probes_after instead.
  [[nodiscard]] virtual long probes_completed() const = 0;
};

/// Depth-1 adapter: submit() runs probe_with_retry inline and returns an
/// already-completed handle. The default lane for every job without
/// transport options, behaviourally identical to calling probe_with_retry
/// directly.
class SyncSourceAdapter final : public AsyncCurrentSource {
 public:
  explicit SyncSourceAdapter(CurrentSource& source) : source_(source) {}

  [[nodiscard]] CompletionHandle submit(std::span<const Point2> points,
                                        std::span<double> out,
                                        const AcquisitionContext& context,
                                        const char* stage) override;
  void abort_inflight() override {}
  [[nodiscard]] long depth() const override { return 1; }
  [[nodiscard]] long probes_completed() const override {
    return source_.probe_count();
  }

 private:
  CurrentSource& source_;
};

}  // namespace qvg
