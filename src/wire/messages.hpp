// The wire API's message set: self-contained request/report/progress/status
// messages with exact binary round trips (wire/codec.hpp) and a JSON lane
// (wire/json.hpp). Both lanes encode and decode every message from its field
// table in wire/schema.hpp: a new or reserved field is one row there, not a
// change to either codec.
//
// ExtractionRequest cannot travel as-is: its backends borrow process-local
// pointers (const BuiltDevice*, const Csd*). WireRequest is the
// self-contained equivalent — the playback backend carries the full diagram
// inline (axes, pixels, truth, name) and the device backend carries the
// DotArrayParams plus the jitter seed, from which materialize() rebuilds a
// bit-identical BuiltDevice (build_dot_array is deterministic given params
// and seed). The absolute steady_clock deadline is likewise replaced by a
// relative deadline_ms, anchored at the receiver when the job is admitted.
//
// WireReport is the served subset of ExtractionReport: label, method, typed
// Status, virtual gates, slopes, ProbeStats, FaultStats, attempts, wall
// time, and the verdict. The full per-stage diagnostics (FastExtractionResult
// / HoughBaselineResult) stay process-local — they are debugging payloads,
// not service results. The loopback test pins that a report served over the
// wire is bit-identical (operator==) to one taken straight from
// ExtractionEngine::run on the same materialized request.
#pragma once

#include "device/dot_array.hpp"
#include "service/extraction_engine.hpp"
#include "wire/codec.hpp"

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace qvg::wire {

/// Which backend a WireRequest names. Exactly one must be set; kNone (or a
/// conflicting pair of backend fields) fails materialization with
/// kInvalidRequest.
enum class WireBackendKind : std::uint8_t {
  kNone = 0,
  kDevice = 1,
  kPlayback = 2,
};

/// Self-contained device backend: enough to rebuild the BuiltDevice
/// deterministically on the receiver.
struct WireDeviceBackend {
  DotArrayParams params;
  /// Whether the device was built with parameter jitter (a seeded Rng); the
  /// receiver rebuilds with Rng(jitter_seed), reproducing the exact device.
  bool has_jitter = false;
  std::uint64_t jitter_seed = 0;

  std::uint64_t pair_index = 0;
  std::uint64_t noise_seed = 42;
  double dwell_seconds = 0.050;
  std::uint64_t pixels_per_axis = 100;
  double white_noise_sigma = 0.0;
  double pink_noise_sigma = 0.0;
  double telegraph_amplitude = 0.0;
  double telegraph_rate_hz = 0.5;

  friend bool operator==(const WireDeviceBackend&,
                         const WireDeviceBackend&) = default;
};

/// Self-contained playback backend: the diagram travels inline.
struct WirePlaybackBackend {
  Csd csd;
  double dwell_seconds = 0.050;

  friend bool operator==(const WirePlaybackBackend&,
                         const WirePlaybackBackend&) = default;
};

/// The serializable extraction request.
struct WireRequest {
  ExtractionMethod method = ExtractionMethod::kFast;
  WireBackendKind backend = WireBackendKind::kNone;
  WireDeviceBackend device;
  WirePlaybackBackend playback;

  /// Scan window override (defaults to the backend's own window).
  std::optional<VoltageAxis> x_axis;
  std::optional<VoltageAxis> y_axis;

  /// Relative deadline in milliseconds from admission; 0 = none. (An
  /// absolute steady_clock point is meaningless across processes.)
  std::uint64_t deadline_ms = 0;
  Budget budget;
  FaultSchedule faults;
  RetryPolicy retry;
  /// Instrument transport model (probe/transport_options.hpp). Absent on
  /// the wire = all defaults (io_depth 0, synchronous adapter lane), so old
  /// clients and old servers interoperate unchanged.
  TransportOptions transport;
  std::string label;

  friend bool operator==(const WireRequest&, const WireRequest&) = default;
};

/// A WireRequest turned back into something the engine can run. The
/// ExtractionRequest borrows the owned device/csd, so the struct must stay
/// alive (and at a stable address — it is move-only) for the duration of
/// the run.
struct MaterializedRequest {
  ExtractionRequest request;
  std::unique_ptr<Csd> csd;            // set for playback backends
  std::unique_ptr<BuiltDevice> device; // set for device backends

  MaterializedRequest() = default;
  MaterializedRequest(MaterializedRequest&&) = default;
  MaterializedRequest& operator=(MaterializedRequest&&) = default;
};

/// Validate and materialize: rebuild the backend, wire up the borrowed
/// pointers, and anchor deadline_ms at now. Fails with kInvalidRequest on a
/// missing/ambiguous backend, out-of-range enum values, or a scan axis
/// (pixels_per_axis or a window override) above 4096 points.
[[nodiscard]] Result<MaterializedRequest> materialize(const WireRequest& wire);

/// The serializable extraction report (see the header comment for what is
/// deliberately left out).
struct WireReport {
  std::string label;
  ExtractionMethod method = ExtractionMethod::kFast;
  Status status;
  VirtualGatePair virtual_gates;
  double slope_steep = 0.0;
  double slope_shallow = 0.0;
  ProbeStats stats;
  FaultStats fault_stats;
  std::int64_t job_attempts = 1;
  double wall_seconds = 0.0;
  Verdict verdict;
  bool has_verdict = false;

  /// The served subset of a full engine report.
  [[nodiscard]] static WireReport from(const ExtractionReport& report);

  friend bool operator==(const WireReport&, const WireReport&) = default;
};

// Binary lane. encode() produces a complete enveloped message;
// decode_*() checks the envelope and rejects malformed input with a typed
// kParseError (stage "wire") — never UB, never a partial object.
[[nodiscard]] std::vector<std::uint8_t> encode(const WireRequest& request);
[[nodiscard]] Result<WireRequest> decode_request(
    std::span<const std::uint8_t> buffer);

[[nodiscard]] std::vector<std::uint8_t> encode(const WireReport& report);
[[nodiscard]] Result<WireReport> decode_report(
    std::span<const std::uint8_t> buffer);

[[nodiscard]] std::vector<std::uint8_t> encode(const ProgressEvent& event);
[[nodiscard]] Result<ProgressEvent> decode_progress(
    std::span<const std::uint8_t> buffer);

[[nodiscard]] std::vector<std::uint8_t> encode_status(const Status& status);
/// Out-param flavour (Result<Status> would be ambiguous): the return value
/// is the *decode* outcome, `out` the decoded status.
[[nodiscard]] Status decode_status(std::span<const std::uint8_t> buffer,
                                   Status& out);

[[nodiscard]] std::vector<std::uint8_t> encode(const FaultStats& stats);
[[nodiscard]] Result<FaultStats> decode_fault_stats(
    std::span<const std::uint8_t> buffer);

}  // namespace qvg::wire
