// Transport model for the instrument-driver acquisition path.
//
// A real instrument sits behind a link: every batched transfer pays a
// command round-trip (latency) plus a size-proportional transfer time
// (bandwidth). TransportOptions describes that link for one job. The default
// (io_depth = 0) disables the driver entirely — probe loops run through the
// SyncSourceAdapter exactly as before, bit for bit. io_depth >= 1 routes the
// job through an InstrumentDriver whose request ring holds up to io_depth
// in-flight batches: io_depth = 1 is the synchronous-submission regime
// (every batch pays the full latency), io_depth >= 2 lets the pipelined
// probe loops overlap command latency across consecutive batches.
#pragma once

#include <cstdint>

namespace qvg {

struct TransportOptions {
  /// Per-batch command latency in microseconds (the fixed cost of posting a
  /// transfer, independent of its size). Must be >= 0.
  double latency_us = 0.0;
  /// Link bandwidth in probe points per second; 0 = infinite (the transfer
  /// itself is free, only latency is modeled). Must be >= 0.
  double bandwidth = 0.0;
  /// Request-ring capacity: maximum batches in flight at once. 0 disables
  /// the driver (synchronous adapter, no transport charges — the default
  /// acquisition path, bit-identical to earlier PRs). Must be >= 0.
  long io_depth = 0;
  /// Transport accounting mode. false (default): latency and transfer time
  /// are charged to the source's SimClock, per batch, so simulated_seconds
  /// is a pure order-independent function of the batch set — pipelined and
  /// synchronous submission report identical totals. true: the driver
  /// thread additionally waits the transport out in wall-clock time
  /// (command latency overlapped across in-flight batches, transfers
  /// serialized on the link), polling cancellation every millisecond — the
  /// mode the driver's cancellation tests run in.
  bool wall_clock = false;

  /// Whether this job runs through an InstrumentDriver at all.
  [[nodiscard]] bool enabled() const noexcept { return io_depth > 0; }

  friend bool operator==(const TransportOptions&,
                         const TransportOptions&) = default;
};

}  // namespace qvg
