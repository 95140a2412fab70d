// Streaming per-stage progress for acquisition jobs.
//
// Every probe loop already calls AcquisitionContext::check() at each stage
// and batch boundary; a ProgressSink rides inside the context and turns
// those same boundaries into a stream of ProgressEvents (stage name, probes
// issued so far, wall-clock elapsed since the sink was armed). The service
// layer attaches one sink per job and forwards every event to an optional
// per-submit callback.
//
// Like CancelToken, a default-constructed sink is empty: report() is a
// no-op that never touches a mutex, so unlimited hot paths stay free.
// Copies share state. Events are serialized under the sink's mutex —
// sequence numbers are strictly increasing and the callback observes events
// one at a time, in order, even when pipeline stages run on several pool
// threads (the parallel array-pair walk shares one context).
#pragma once

#include <chrono>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <string>

namespace qvg {

/// One stage/batch boundary of a running job.
struct ProgressEvent {
  /// Pipeline stage at the boundary ("engine", "anchors", "sweeps",
  /// "raster", "fit", ...) — the same names Status::stage() uses.
  std::string stage;
  /// Probe requests issued by the job so far, as sampled at the boundary.
  /// Boundaries that do not sample the probe counter (compute-only
  /// checkpoints) repeat the last sampled value.
  long probes_used = 0;
  /// Wall-clock seconds since the job started running (the first reported
  /// boundary — NOT submission time, so queue wait never reads as run
  /// time).
  double elapsed_seconds = 0.0;
  /// Strictly increasing per-sink event number, starting at 0.
  std::size_t sequence = 0;
  /// Monotonic wall-clock timestamp of the boundary: seconds on the steady
  /// clock (since its epoch), sampled at the same instant as
  /// elapsed_seconds. Self-describing on the wire: a streamed event carries
  /// when it happened without the receiver having to know the job's start,
  /// and timestamps are comparable across events of one process.
  double timestamp_seconds = 0.0;

  friend bool operator==(const ProgressEvent&, const ProgressEvent&) = default;
};

/// Shared-state handle on a job's progress stream (copyable, like
/// CancelToken). An empty sink ignores report() at zero cost.
class ProgressSink {
 public:
  using Callback = std::function<void(const ProgressEvent&)>;
  using Clock = std::chrono::steady_clock;

  /// Empty sink: report() is a no-op.
  ProgressSink() = default;

  /// A live sink. `on_event` (optional) is invoked for every reported
  /// boundary, serialized and in order; it runs on whichever thread hit the
  /// boundary, so it must be fast. It must not call report() or block on
  /// the sink's own job.
  [[nodiscard]] static ProgressSink make(Callback on_event = {});

  /// Whether events are being collected.
  [[nodiscard]] bool active() const noexcept { return state_ != nullptr; }

  /// Record a stage/batch boundary. `probes_used < 0` means "not sampled
  /// here"; the event repeats the previous sample. No-op on an empty sink.
  void report(const char* stage, long probes_used) const;

 private:
  struct State;
  std::shared_ptr<State> state_;
};

}  // namespace qvg
