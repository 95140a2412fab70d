// InstrumentDriver: a bounded request ring and a simulated transport, behind
// the AsyncCurrentSource interface, executed on the caller's own thread.
//
// The shape is a DMA device driver. submit() posts a transfer descriptor
// into a fixed-capacity ring (capacity = TransportOptions::io_depth) and
// returns a CompletionHandle. Queued descriptors run oldest first, each
// batch against the inner CurrentSource through probe_with_retry, charging
// the transport cost and fulfilling its completion. A batch runs when its
// handle (or a later one) is waited, on drain(), or when submit() finds the
// ring full (backpressure runs the oldest batch to free a slot). Execution
// is therefore serial in submission order, so the probe traffic the inner
// source sees — order, counts, retries, cache hits — is identical to the
// synchronous loops', which is what keeps pipelined acquisition
// bit-identical to the SyncSourceAdapter lane. The driver and its handles
// belong to the submitting thread.
//
// Transport accounting (see TransportOptions): every executed batch charges
// latency_us + points/bandwidth to the source's SimClock, an
// order-independent per-batch cost, so simulated_seconds is identical at
// any io_depth. In wall_clock mode the driver additionally waits the
// transport out for real: a batch's command latency runs from its submit
// time (overlapped across queued batches), transfers serialize on the
// link, and the wait polls cancellation/deadline every millisecond — so
// cancelling a job stops it within one transfer, not one batch loop.
//
// abort_inflight() and the destructor fail every queued descriptor with
// kCancelled without executing it and detach its handle, so a handle waited
// after its driver is gone never touches the driver. The destructor then
// flushes DriverStats into the owning job's FaultRecorder. No completion is
// ever leaked.
#pragma once

#include "probe/driver/async_source.hpp"
#include "probe/transport_options.hpp"

#include <chrono>
#include <deque>

namespace qvg {

/// What one driver absorbed over its lifetime, merged into
/// FaultStats::driver_* by the destructor (when a recorder is armed).
struct DriverStats {
  /// Transfers executed to completion (successful or failed by the source).
  long batches = 0;
  /// Transfers aborted at the driver boundary: queued descriptors failed by
  /// abort_inflight()/shutdown, plus wall-clock transfers interrupted by
  /// cancellation or deadline.
  long aborted_transfers = 0;
  /// Ring occupancy high-water mark.
  long max_inflight = 0;
  /// Nominal transport time charged across all executed batches (seconds):
  /// per-batch command latency plus size/bandwidth transfer time.
  double transport_seconds = 0.0;

  friend bool operator==(const DriverStats&, const DriverStats&) = default;
};

class InstrumentDriver final : public AsyncCurrentSource {
 public:
  /// `transport.io_depth` must be >= 1 and its latency and bandwidth finite
  /// and non-negative. The recorder (typically the job context's) receives
  /// this driver's DriverStats on destruction; an empty recorder discards
  /// them.
  InstrumentDriver(CurrentSource& source, const TransportOptions& transport,
                   FaultRecorder recorder = {});
  ~InstrumentDriver() override;

  InstrumentDriver(const InstrumentDriver&) = delete;
  InstrumentDriver& operator=(const InstrumentDriver&) = delete;

  [[nodiscard]] CompletionHandle submit(std::span<const Point2> points,
                                        std::span<double> out,
                                        const AcquisitionContext& context,
                                        const char* stage) override;
  void abort_inflight() override;
  /// Complete every queued batch, oldest first. Afterwards nothing is in
  /// flight and probes_completed() is the source's current probe count.
  void drain();
  [[nodiscard]] long depth() const override { return transport_.io_depth; }
  [[nodiscard]] long probes_completed() const override {
    return last_probes_;
  }

  /// Lifetime totals so far.
  [[nodiscard]] DriverStats stats() const { return stats_; }

 private:
  friend class CompletionHandle;
  using WallClock = std::chrono::steady_clock;

  struct Request {
    std::span<const Point2> points;
    std::span<double> out;
    const AcquisitionContext* context = nullptr;
    const char* stage = "driver";
    std::shared_ptr<CompletionHandle::State> state;
    WallClock::time_point submitted_at;
  };

  /// Run queued batches, oldest first, until `state` is done.
  void run_through(const CompletionHandle::State& state);
  /// Pop the oldest queued batch, execute it, and fulfil its completion.
  void run_oldest();
  /// Wall-clock transport wait for one executed batch (no-op in sim mode).
  /// Returns ok, or the typed interruption that aborted the transfer.
  [[nodiscard]] Status wall_wait(const Request& request);
  static void fulfil(CompletionHandle::State& state,
                     BatchCompletion completion);

  CurrentSource& source_;
  const TransportOptions transport_;
  FaultRecorder recorder_;

  std::deque<Request> ring_;
  long last_probes_ = 0;
  DriverStats stats_;
  // When the serialized link frees up (wall mode).
  WallClock::time_point link_free_at_{};
};

}  // namespace qvg
