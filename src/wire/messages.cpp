#include "wire/messages.hpp"

#include "common/random.hpp"
#include "wire/schema.hpp"

#include <chrono>
#include <cmath>
#include <utility>

namespace qvg::wire {

namespace {

using schema::Message;
using schema::Proxied;

// The binary walker over the tables of wire/schema.hpp: put()/take() move
// one value by its C++ type, put_fields()/take_fields() one message.

template <Message T>
void put_fields(WireWriter& w, const T& message);
template <Message T>
Status take_fields(std::span<const std::uint8_t> payload, T& message);

template <typename V>
void put(WireWriter& w, std::uint8_t tag, const V& value) {
  if constexpr (std::is_same_v<V, double>) {
    w.f64(tag, value);
  } else if constexpr (std::is_same_v<V, std::string>) {
    w.str(tag, value);
  } else if constexpr (std::is_same_v<V, std::vector<double>>) {
    w.f64_array(tag, value);
  } else if constexpr (Message<V>) {
    WireWriter nested;
    put_fields(nested, value);
    w.msg(tag, nested);
  } else if constexpr (schema::kIsOptional<V>) {
    if (value.has_value()) put(w, tag, *value);
  } else {
    // Integers, bools and enums; signed values as two's complement.
    w.u64(tag, static_cast<std::uint64_t>(value));
  }
}

/// The wire type a field of C++ type V travels as.
template <typename V>
constexpr FieldType kWireType =
    std::is_same_v<V, double> ? FieldType::kF64
    : std::is_same_v<V, std::string> || std::is_same_v<V, std::vector<double>>
        ? FieldType::kBytes
    : Message<V> ? FieldType::kMsg
                 : FieldType::kU64;

template <typename V>
Status take(const WireField& f, V& out) {
  // A field carrying the wrong wire type for its tag is malformed input
  // (kParseError), not a caller bug as it is for the as_* accessors.
  if (f.type != kWireType<V>)
    return wire_error("tag " + std::to_string(f.tag) + " has wire type " +
                      std::to_string(static_cast<int>(f.type)));
  if constexpr (std::is_same_v<V, double>) {
    out = f.as_f64();
  } else if constexpr (std::is_same_v<V, std::string>) {
    out = f.as_string();
  } else if constexpr (std::is_same_v<V, std::vector<double>>) {
    Result<std::vector<double>> values = f.as_f64_array();
    if (!values.ok()) return values.status();
    out = std::move(values).value();
  } else if constexpr (Message<V>) {
    return take_fields(f.payload, out);
  } else if constexpr (std::is_signed_v<V>) {
    if (!std::in_range<V>(f.as_i64()))
      return wire_error("tag " + std::to_string(f.tag) + " value " +
                        std::to_string(f.as_i64()) + " does not fit its field");
    out = static_cast<V>(f.as_i64());
  } else {
    out = static_cast<V>(f.as_u64());
  }
  return Status();
}

template <typename V>
Status take(const WireField& f, std::optional<V>& out) {
  return take(f, out.emplace());
}

template <Message T>
void put_fields(WireWriter& w, const T& message) {
  if constexpr (Proxied<T>) {
    put_fields(w, schema::fields_of(message));
  } else {
    schema::for_each_row_by_tag<T>([&](const auto& row) {
      if (row.when(message)) put(w, row.tag, std::invoke(row.get, message));
    });
  }
}

template <typename T, typename R>
Status take_row(const WireField& f, T& message, const R& row) {
  auto& value = std::invoke(row.get, message);
  if constexpr (!schema::kNamed<R>) {
    return take(f, value);
  } else {
    std::uint64_t raw = 0;
    Status s = take(f, raw);
    if (!s.ok()) return s;
    if (raw >= row.names.size())
      return wire_error("unknown " + std::string(row.key) + " " +
                        std::to_string(raw));
    value = static_cast<std::remove_cvref_t<decltype(value)>>(raw);
    return Status();
  }
}

/// take_row() of each row of T's table, by row index: a decoder dispatches
/// a field in one lookup of its tag, whatever the table's size.
template <typename T>
constexpr auto kTakeRow = []<std::size_t... I>(std::index_sequence<I...>) {
  return std::array<Status (*)(const WireField&, T&), sizeof...(I)>{
      [](const WireField& f, T& message) {
        return take_row(f, message, std::get<I>(schema::kFields<T>));
      }...};
}(std::make_index_sequence<schema::kRowCount<T>>{});

template <Message T>
Status take_fields(std::span<const std::uint8_t> payload, T& message) {
  if constexpr (Proxied<T>) {
    return schema::through_proxy(message, wire_error, [&](auto& proxy) {
      return take_fields(payload, proxy);
    });
  } else {
    WireReader reader(payload);
    std::uint64_t seen = 0;
    for (;;) {
      Result<std::optional<WireField>> field = reader.next();
      if (!field.ok()) return field.status();
      if (!field.value().has_value()) break;
      const WireField& f = *field.value();
      const std::size_t row = schema::kRowOfTag<T>[f.tag];
      if (row == schema::kRowCount<T>) continue;  // a newer writer's field
      seen |= std::uint64_t{1} << row;
      Status s = kTakeRow<T>[row](f, message);
      if (!s.ok()) return s;
    }
    return schema::check_required(message, seen, wire_error);
  }
}

template <Message T>
std::vector<std::uint8_t> encode_message(MessageKind kind, const T& message) {
  WireWriter w;
  w.begin(kind);
  put_fields(w, message);
  return std::move(w).take();
}

template <Message T>
Status decode_into(std::span<const std::uint8_t> buffer, MessageKind kind,
                   T& out) {
  WireReader reader(buffer);
  Status s = reader.expect_envelope(kind);
  return s.ok() ? take_fields(buffer.subspan(4), out) : s;
}

template <Message T>
Result<T> decode_message(std::span<const std::uint8_t> buffer,
                         MessageKind kind) {
  T out;
  Status s = decode_into(buffer, kind, out);
  if (!s.ok()) return s;
  return out;
}

}  // namespace

std::vector<std::uint8_t> encode(const WireRequest& request) {
  return encode_message(MessageKind::kRequest, request);
}

Result<WireRequest> decode_request(std::span<const std::uint8_t> buffer) {
  return decode_message<WireRequest>(buffer, MessageKind::kRequest);
}

std::vector<std::uint8_t> encode(const WireReport& report) {
  return encode_message(MessageKind::kReport, report);
}

Result<WireReport> decode_report(std::span<const std::uint8_t> buffer) {
  return decode_message<WireReport>(buffer, MessageKind::kReport);
}

std::vector<std::uint8_t> encode(const ProgressEvent& event) {
  return encode_message(MessageKind::kProgress, event);
}

Result<ProgressEvent> decode_progress(std::span<const std::uint8_t> buffer) {
  return decode_message<ProgressEvent>(buffer, MessageKind::kProgress);
}

std::vector<std::uint8_t> encode_status(const Status& status) {
  return encode_message(MessageKind::kStatus, status);
}

Status decode_status(std::span<const std::uint8_t> buffer, Status& out) {
  return decode_into(buffer, MessageKind::kStatus, out);
}

std::vector<std::uint8_t> encode(const FaultStats& stats) {
  return encode_message(MessageKind::kFaultStats, stats);
}

Result<FaultStats> decode_fault_stats(std::span<const std::uint8_t> buffer) {
  return decode_message<FaultStats>(buffer, MessageKind::kFaultStats);
}

// ------------------------------------------------------------- report -----

WireReport WireReport::from(const ExtractionReport& report) {
  WireReport out;
  out.label = report.label;
  out.method = report.method;
  out.status = report.status;
  out.virtual_gates = report.virtual_gates;
  out.slope_steep = report.slope_steep;
  out.slope_shallow = report.slope_shallow;
  out.stats = report.stats;
  out.fault_stats = report.fault_stats;
  out.job_attempts = report.job_attempts;
  out.wall_seconds = report.wall_seconds;
  out.verdict = report.verdict;
  out.has_verdict = report.has_verdict;
  return out;
}

// -------------------------------------------------------- materialize -----

/// Service bound on the points along one scan axis (pixels_per_axis and a
/// scan window override alike).
constexpr std::uint64_t kMaxAxisPoints = 4096;

Result<MaterializedRequest> materialize(const WireRequest& wire) {
  auto invalid = [](std::string detail) {
    return Status::failure(ErrorCode::kInvalidRequest, "wire",
                           std::move(detail));
  };

  // A scan window override sizes the raster like pixels_per_axis does, so
  // it is held to the same service bound.
  for (const std::optional<VoltageAxis>* axis : {&wire.x_axis, &wire.y_axis})
    if (axis->has_value() && (*axis)->count() > kMaxAxisPoints)
      return invalid("scan window axis above the service bound 4096 points");

  MaterializedRequest m;
  m.request.method = wire.method;
  switch (wire.backend) {
    case WireBackendKind::kDevice: {
      // build_dot_array's preconditions, surfaced as typed errors (a wire
      // request is untrusted input; a contract abort is not an API).
      const DotArrayParams& p = wire.device.params;
      if (p.n_dots < 2 || p.n_dots > 64)
        return invalid("device n_dots must be in [2, 64]");
      if (!(p.window_hi > p.window_lo))
        return invalid("device window_hi must exceed window_lo");
      if (!(p.cross_ratio > 0.0 && p.cross_ratio < 1.0))
        return invalid("device cross_ratio must be in (0, 1)");
      if (!(p.alpha_self > 0.0)) return invalid("device alpha_self must be > 0");
      if (!(p.charging_energy > 0.0))
        return invalid("device charging_energy must be > 0");
      if (wire.device.pixels_per_axis > kMaxAxisPoints)
        return invalid("device pixels_per_axis above the service bound 4096");
      if (wire.device.has_jitter) {
        Rng jitter_rng(wire.device.jitter_seed);
        m.device = std::make_unique<BuiltDevice>(build_dot_array(p, &jitter_rng));
      } else {
        m.device = std::make_unique<BuiltDevice>(build_dot_array(p));
      }
      DeviceBackend& d = m.request.device;
      d.device = m.device.get();
      d.pair_index = static_cast<std::size_t>(wire.device.pair_index);
      d.noise_seed = wire.device.noise_seed;
      d.dwell_seconds = wire.device.dwell_seconds;
      d.pixels_per_axis =
          static_cast<std::size_t>(wire.device.pixels_per_axis);
      d.white_noise_sigma = wire.device.white_noise_sigma;
      d.pink_noise_sigma = wire.device.pink_noise_sigma;
      d.telegraph_amplitude = wire.device.telegraph_amplitude;
      d.telegraph_rate_hz = wire.device.telegraph_rate_hz;
      break;
    }
    case WireBackendKind::kPlayback: {
      if (wire.playback.csd.width() == 0 || wire.playback.csd.height() == 0)
        return invalid("playback backend with an empty CSD");
      m.csd = std::make_unique<Csd>(wire.playback.csd);
      m.request.playback.csd = m.csd.get();
      m.request.playback.dwell_seconds = wire.playback.dwell_seconds;
      break;
    }
    case WireBackendKind::kNone:
      return invalid("request names no backend");
  }
  m.request.x_axis = wire.x_axis;
  m.request.y_axis = wire.y_axis;
  if (wire.deadline_ms > 0)
    m.request.deadline = std::chrono::steady_clock::now() +
                         std::chrono::milliseconds(wire.deadline_ms);
  m.request.budget = wire.budget;
  m.request.faults = wire.faults;
  m.request.retry = wire.retry;
  if (wire.transport.io_depth < 0)
    return invalid("transport io_depth must be >= 0");
  if (wire.transport.io_depth > 256)
    return invalid("transport io_depth above the service bound 256");
  if (!(std::isfinite(wire.transport.latency_us) &&
        wire.transport.latency_us >= 0.0))
    return invalid("transport latency_us must be finite and >= 0");
  if (!(std::isfinite(wire.transport.bandwidth) &&
        wire.transport.bandwidth >= 0.0))
    return invalid("transport bandwidth must be finite and >= 0");
  m.request.transport = wire.transport;
  m.request.label = wire.label;
  return m;
}

}  // namespace qvg::wire
