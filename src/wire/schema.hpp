// The wire schema: one constexpr field table per message, walked by the
// binary codec (messages.cpp, over WireWriter/WireReader) and the JSON codec
// (json.cpp, over JsonValue). Neither lane spells out a message's fields:
// adding a field is one row of kFields, and reserving a deleted one is one
// row of kReserved.
//
// A row holds the binary tag, the JSON key and an accessor (a member pointer,
// or a small lambda for a nested field). Its kind is the field's C++ type:
// unsigned and signed integers (a value that does not fit the member is a
// kParseError, never truncated), bool, double (JSON "nan"/"inf"/"-inf" for
// non-finite values), std::string, std::vector<double> (a packed f64 array /
// a JSON array), a type with a table (nested message / object) and
// std::optional (written only when set). named() rows are enums, by value on
// the binary lane and by name on the JSON lane; field_when() rows are
// written only when their condition holds, and are then required on decode.
//
// VoltageAxis (its constructor validates), Csd and Status (its code) travel
// through proxy aggregates: fields_of() builds the proxy, assign() validates
// it and rebuilds the value, once for both lanes.
#pragma once

#include "wire/messages.hpp"

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <vector>

namespace qvg::wire::schema {

/// Presence of an ordinary row: always written, may be absent on decode
/// (an older writer), in which case the field keeps its default.
struct Always {
  constexpr bool operator()(const auto&) const { return true; }
};

template <typename Get, typename When = Always, bool Named = false>
struct Row {
  static constexpr bool kNamed = Named;
  std::uint8_t tag;
  std::string_view key;
  Get get;
  When when{};
  /// Named enums: the JSON name of each value, indexed by value.
  std::span<const std::string_view> names{};
};

template <typename Get>
constexpr Row<Get> field(std::uint8_t tag, std::string_view key, Get get) {
  return {tag, key, get};
}

template <typename Get>
constexpr Row<Get, Always, true> named(
    std::uint8_t tag, std::string_view key, Get get,
    std::span<const std::string_view> names) {
  return {tag, key, get, {}, names};
}

template <typename Get, typename When>
constexpr Row<Get, When> field_when(std::uint8_t tag, std::string_view key,
                                    Get get, When when) {
  return {tag, key, get, when};
}

inline constexpr std::string_view kMethodNames[] = {"fast", "hough_baseline"};
inline constexpr std::string_view kBackendNames[] = {"none", "device",
                                                     "playback"};
/// error_code_name() of every ErrorCode, by value.
extern const std::array<std::string_view,
                        static_cast<std::size_t>(ErrorCode::kInternal) + 1>
    kErrorCodeNames;

// ------------------------------------------------------------- proxies ----

struct AxisFields {
  double start = 0.0;
  double step = 1.0;
  std::uint64_t count = 1;
};

struct CsdFields {
  std::optional<VoltageAxis> x_axis;
  std::optional<VoltageAxis> y_axis;
  std::string name;
  std::optional<TransitionTruth> truth;
  std::vector<double> pixels;  // row-major, y outer
};

struct StatusFields {
  ErrorCode code = ErrorCode::kOk;
  std::string stage;
  std::string detail;
};

[[nodiscard]] AxisFields fields_of(const VoltageAxis& axis);
[[nodiscard]] CsdFields fields_of(const Csd& csd);
[[nodiscard]] StatusFields fields_of(const Status& status);
/// Validate a decoded proxy and rebuild the value from it. Returns why the
/// proxy is rejected, empty when accepted; each lane turns the reason into
/// its own typed kParseError.
[[nodiscard]] std::string assign(VoltageAxis& out, AxisFields in);
[[nodiscard]] std::string assign(Csd& out, CsdFields in);
[[nodiscard]] std::string assign(Status& out, StatusFields in);

// -------------------------------------------------------------- tables ----

/// The field table of T; types without one are not messages.
template <typename T>
inline constexpr std::nullptr_t kFields = nullptr;

/// A deleted field of a message, reserved: no row may reuse its tag or key,
/// so an old client's value is skipped as unknown, never read as a newer
/// field.
struct Reserved {
  std::uint8_t tag;
  std::string_view key;
};

/// The reserved fields of T.
template <typename T>
inline constexpr std::array<Reserved, 0> kReserved{};

template <>
inline constexpr auto kFields<AxisFields> = std::tuple{
    field(1, "start", &AxisFields::start),
    field(2, "step", &AxisFields::step),
    field(3, "count", &AxisFields::count),
};

template <>
inline constexpr auto kFields<TransitionTruth> = std::tuple{
    field(1, "slope_steep", &TransitionTruth::slope_steep),
    field(2, "slope_shallow", &TransitionTruth::slope_shallow),
    field(3, "triple_point_x",
          [](auto& t) -> auto& { return t.triple_point.x; }),
    field(4, "triple_point_y",
          [](auto& t) -> auto& { return t.triple_point.y; }),
};

template <>
inline constexpr auto kFields<CsdFields> = std::tuple{
    field(1, "x_axis", &CsdFields::x_axis),
    field(2, "y_axis", &CsdFields::y_axis),
    field(3, "name", &CsdFields::name),
    field(4, "truth", &CsdFields::truth),
    field(5, "pixels", &CsdFields::pixels),
};

template <>
inline constexpr auto kFields<StatusFields> = std::tuple{
    named(1, "code", &StatusFields::code, kErrorCodeNames),
    field(2, "stage", &StatusFields::stage),
    field(3, "detail", &StatusFields::detail),
};

template <>
inline constexpr auto kFields<DotArrayParams> = std::tuple{
    field(1, "n_dots", &DotArrayParams::n_dots),
    field(2, "window_lo", &DotArrayParams::window_lo),
    field(3, "window_hi", &DotArrayParams::window_hi),
    field(4, "base_voltage", &DotArrayParams::base_voltage),
    field(5, "alpha_self", &DotArrayParams::alpha_self),
    field(6, "cross_ratio", &DotArrayParams::cross_ratio),
    field(7, "cross_far_decay", &DotArrayParams::cross_far_decay),
    field(8, "charging_energy", &DotArrayParams::charging_energy),
    field(9, "mutual_coupling", &DotArrayParams::mutual_coupling),
    field(10, "transition_fraction_x", &DotArrayParams::transition_fraction_x),
    field(11, "transition_fraction_y", &DotArrayParams::transition_fraction_y),
    field(12, "sensor_beta", &DotArrayParams::sensor_beta),
    field(13, "sensor_beta_falloff", &DotArrayParams::sensor_beta_falloff),
    field(14, "sensor_gamma", &DotArrayParams::sensor_gamma),
    field(15, "sensor_gamma_decay", &DotArrayParams::sensor_gamma_decay),
    field(16, "peak_spacing", &DotArrayParams::peak_spacing),
    field(17, "peak_width", &DotArrayParams::peak_width),
    field(18, "peak_current", &DotArrayParams::peak_current),
    field(19, "flank_offset", &DotArrayParams::flank_offset),
    field(20, "jitter", &DotArrayParams::jitter),
};

template <>
inline constexpr auto kFields<WireDeviceBackend> = std::tuple{
    field(1, "params", &WireDeviceBackend::params),
    field(2, "has_jitter", &WireDeviceBackend::has_jitter),
    field(3, "jitter_seed", &WireDeviceBackend::jitter_seed),
    field(4, "pair_index", &WireDeviceBackend::pair_index),
    field(5, "noise_seed", &WireDeviceBackend::noise_seed),
    field(6, "dwell_seconds", &WireDeviceBackend::dwell_seconds),
    field(7, "pixels_per_axis", &WireDeviceBackend::pixels_per_axis),
    field(8, "white_noise_sigma", &WireDeviceBackend::white_noise_sigma),
    field(9, "pink_noise_sigma", &WireDeviceBackend::pink_noise_sigma),
    field(10, "telegraph_amplitude", &WireDeviceBackend::telegraph_amplitude),
    field(11, "telegraph_rate_hz", &WireDeviceBackend::telegraph_rate_hz),
};
/// Tag 12 / "frontier" chose among deleted ground-state searches (0
/// "anneal", 1 "tabu", 2 "greedy"). Old clients still send it; both lanes
/// skip it as unknown.
template <>
inline constexpr std::array kReserved<WireDeviceBackend> = {
    Reserved{12, "frontier"}};

template <>
inline constexpr auto kFields<WirePlaybackBackend> = std::tuple{
    // The diagram is the backend: a playback message without one is
    // malformed on both lanes.
    field_when(1, "csd", &WirePlaybackBackend::csd,
               [](const WirePlaybackBackend&) { return true; }),
    field(2, "dwell_seconds", &WirePlaybackBackend::dwell_seconds),
};

template <>
inline constexpr auto kFields<Budget> = std::tuple{
    field(1, "max_probes", &Budget::max_probes),
    field(2, "max_wall_seconds", &Budget::max_wall_seconds),
};

template <>
inline constexpr auto kFields<FaultSchedule> = std::tuple{
    field(1, "seed", &FaultSchedule::seed),
    field(2, "transient_rate", &FaultSchedule::transient_rate),
    field(3, "transient_burst", &FaultSchedule::transient_burst),
    field(4, "hard_fault_rate", &FaultSchedule::hard_fault_rate),
    field(5, "stuck_rate", &FaultSchedule::stuck_rate),
    field(6, "stuck_probes", &FaultSchedule::stuck_probes),
    field(7, "latency_spike_rate", &FaultSchedule::latency_spike_rate),
    field(8, "latency_spike_seconds", &FaultSchedule::latency_spike_seconds),
    field(9, "drift_volts_per_second", &FaultSchedule::drift_volts_per_second),
    field(10, "jump_probability", &FaultSchedule::jump_probability),
    field(11, "jump_magnitude_volts", &FaultSchedule::jump_magnitude_volts),
    field(12, "jump_at_batch", &FaultSchedule::jump_at_batch),
    field(13, "drift_detect_threshold_volts",
          &FaultSchedule::drift_detect_threshold_volts),
    field(14, "drift_detect_lag_batches",
          &FaultSchedule::drift_detect_lag_batches),
};

template <>
inline constexpr auto kFields<RetryPolicy> = std::tuple{
    field(1, "max_attempts", &RetryPolicy::max_attempts),
    field(2, "base_backoff_seconds", &RetryPolicy::base_backoff_seconds),
    field(3, "backoff_multiplier", &RetryPolicy::backoff_multiplier),
    field(4, "jitter_fraction", &RetryPolicy::jitter_fraction),
    field(5, "jitter_seed", &RetryPolicy::jitter_seed),
    field(6, "wall_clock_backoff", &RetryPolicy::wall_clock_backoff),
};

template <>
inline constexpr auto kFields<TransportOptions> = std::tuple{
    field(1, "latency_us", &TransportOptions::latency_us),
    field(2, "bandwidth", &TransportOptions::bandwidth),
    field(3, "io_depth", &TransportOptions::io_depth),
    field(4, "wall_clock", &TransportOptions::wall_clock),
};

template <>
inline constexpr auto kFields<WireRequest> = std::tuple{
    named(1, "method", &WireRequest::method, kMethodNames),
    named(2, "backend", &WireRequest::backend, kBackendNames),
    // Only the active backend travels; the inactive one keeps its default.
    field_when(3, "device", &WireRequest::device, [](const WireRequest& r) {
      return r.backend == WireBackendKind::kDevice;
    }),
    field_when(4, "playback", &WireRequest::playback, [](const WireRequest& r) {
      return r.backend == WireBackendKind::kPlayback;
    }),
    field(5, "x_axis", &WireRequest::x_axis),
    field(6, "y_axis", &WireRequest::y_axis),
    field(7, "deadline_ms", &WireRequest::deadline_ms),
    field(8, "budget", &WireRequest::budget),
    field(9, "faults", &WireRequest::faults),
    field(10, "retry", &WireRequest::retry),
    // JSON keeps table order and the binary lane ascending tag order, so
    // "transport" precedes "label" in the text and follows it in the bytes.
    field(12, "transport", &WireRequest::transport),
    field(11, "label", &WireRequest::label),
};

template <>
inline constexpr auto kFields<ProbeStats> = std::tuple{
    field(1, "unique_probes", &ProbeStats::unique_probes),
    field(2, "total_requests", &ProbeStats::total_requests),
    field(3, "simulated_seconds", &ProbeStats::simulated_seconds),
    field(4, "compute_seconds", &ProbeStats::compute_seconds),
};

template <>
inline constexpr auto kFields<FaultStats> = std::tuple{
    field(1, "transient_faults", &FaultStats::transient_faults),
    field(2, "drift_events", &FaultStats::drift_events),
    field(3, "retries", &FaultStats::retries),
    field(4, "backoff_seconds", &FaultStats::backoff_seconds),
    field(5, "reacquired_rows", &FaultStats::reacquired_rows),
    field(6, "driver_batches", &FaultStats::driver_batches),
    field(7, "driver_aborted_transfers", &FaultStats::driver_aborted_transfers),
    field(8, "driver_max_inflight", &FaultStats::driver_max_inflight),
    field(9, "transport_stall_seconds", &FaultStats::transport_stall_seconds),
};

template <>
inline constexpr auto kFields<Verdict> = std::tuple{
    field(1, "success", &Verdict::success),
    field(2, "reason", &Verdict::reason),
    field(3, "alpha12_rel_error", &Verdict::alpha12_rel_error),
    field(4, "alpha21_rel_error", &Verdict::alpha21_rel_error),
    field(5, "virtualized_angle_deg", &Verdict::virtualized_angle_deg),
};

template <>
inline constexpr auto kFields<WireReport> = std::tuple{
    field(1, "label", &WireReport::label),
    named(2, "method", &WireReport::method, kMethodNames),
    field(3, "status", &WireReport::status),
    field(4, "alpha12",
          [](auto& r) -> auto& { return r.virtual_gates.alpha12; }),
    field(5, "alpha21",
          [](auto& r) -> auto& { return r.virtual_gates.alpha21; }),
    field(6, "slope_steep", &WireReport::slope_steep),
    field(7, "slope_shallow", &WireReport::slope_shallow),
    field(8, "stats", &WireReport::stats),
    field(9, "fault_stats", &WireReport::fault_stats),
    field(10, "job_attempts", &WireReport::job_attempts),
    field(11, "wall_seconds", &WireReport::wall_seconds),
    field(12, "verdict", &WireReport::verdict),
    field(13, "has_verdict", &WireReport::has_verdict),
};

template <>
inline constexpr auto kFields<ProgressEvent> = std::tuple{
    field(1, "stage", &ProgressEvent::stage),
    field(2, "probes_used", &ProgressEvent::probes_used),
    field(3, "elapsed_seconds", &ProgressEvent::elapsed_seconds),
    field(4, "sequence", &ProgressEvent::sequence),
    field(5, "timestamp_seconds", &ProgressEvent::timestamp_seconds),
};

// ------------------------------------------------------------- walking ----

template <typename T>
concept Tabled =
    !std::is_same_v<std::remove_cvref_t<decltype(kFields<T>)>, std::nullptr_t>;

/// A type that travels through a proxy aggregate with a table.
template <typename T>
concept Proxied = requires(const T& value) {
  { fields_of(value) } -> Tabled;
};

/// Anything that travels as a nested message / JSON object.
template <typename T>
concept Message = Tabled<T> || Proxied<T>;

template <typename T>
inline constexpr bool kIsOptional = false;
template <typename T>
inline constexpr bool kIsOptional<std::optional<T>> = true;

template <typename R>
inline constexpr bool kNamed = std::remove_cvref_t<R>::kNamed;

template <typename T>
inline constexpr std::size_t kRowCount =
    std::tuple_size_v<std::remove_cvref_t<decltype(kFields<T>)>>;

/// fn(row, index) for every row of T's table, in table order.
template <Tabled T, typename Fn>
constexpr void for_each_row(Fn&& fn) {
  std::apply(
      [&](const auto&... rows) {
        std::size_t i = 0;
        (fn(rows, i++), ...);
      },
      kFields<T>);
}

/// Whether every row of T's table keeps clear of T's reserved tags and keys.
template <Tabled T>
constexpr bool clear_of_reserved() {
  bool clear = true;
  for_each_row<T>([&](const auto& row, std::size_t) {
    for (const Reserved& reserved : kReserved<T>)
      clear = clear && row.tag != reserved.tag && row.key != reserved.key;
  });
  return clear;
}

/// Row index of each binary tag in T's table; kRowCount<T> for a tag no row
/// claims.
template <Tabled T>
inline constexpr auto kRowOfTag = [] {
  static_assert(clear_of_reserved<T>(), "a row reuses a reserved tag or key");
  std::array<std::uint8_t, 256> rows{};
  rows.fill(static_cast<std::uint8_t>(kRowCount<T>));
  for_each_row<T>([&](const auto& row, std::size_t i) {
    rows[row.tag] = static_cast<std::uint8_t>(i);
  });
  return rows;
}();

/// Row indices of T's table in ascending tag order (the binary lane's
/// write order).
template <Tabled T>
inline constexpr auto kTagOrder = [] {
  std::array<std::size_t, kRowCount<T>> order{};
  std::size_t n = 0;
  for (const std::uint8_t row : kRowOfTag<T>)
    if (row < kRowCount<T>) order[n++] = row;
  return order;
}();

/// fn(row) for every row of T's table, in ascending tag order.
template <Tabled T, typename Fn>
void for_each_row_by_tag(Fn&& fn) {
  [&]<std::size_t... I>(std::index_sequence<I...>) {
    (fn(std::get<kTagOrder<T>[I]>(kFields<T>)), ...);
  }(std::make_index_sequence<kRowCount<T>>{});
}

/// A lane's typed kParseError for a detail message.
using ErrorFn = Status (*)(std::string);

/// Decode a proxied value: read(proxy) fills the proxy and assign()
/// validates it, a rejection becoming the lane's error.
template <Proxied T, typename Read>
Status through_proxy(T& out, ErrorFn error, Read&& read) {
  decltype(fields_of(out)) proxy;
  Status s = read(proxy);
  if (!s.ok()) return s;
  std::string why = assign(out, std::move(proxy));
  return why.empty() ? Status() : error(std::move(why));
}

/// After a decode: every field_when() row whose condition holds on
/// `message` must have been present (its bit set in `seen`, by row index).
template <Tabled T>
Status check_required(const T& message, std::uint64_t seen, ErrorFn error) {
  static_assert(kRowCount<T> <= 64, "the seen mask holds 64 rows");
  Status s;
  for_each_row<T>([&](const auto& row, std::size_t i) {
    if constexpr (!std::is_same_v<std::remove_cvref_t<decltype(row.when)>,
                                  Always>) {
      if (s.ok() && row.when(message) && !((seen >> i) & 1))
        s = error("required field '" + std::string(row.key) + "' is absent");
    }
  });
  return s;
}

}  // namespace qvg::wire::schema
