#include "wire/messages.hpp"

#include "common/random.hpp"

#include <chrono>
#include <cmath>
#include <utility>

namespace qvg::wire {

namespace {

// -------------------------------------------------- decode helpers --------

// Typed extraction with wire-type checking: a field carrying the wrong wire
// type for its tag is malformed input (kParseError), not a caller bug — the
// as_* accessors alone would treat it as a contract violation.
Status take_u64(const WireField& f, std::uint64_t& out) {
  if (f.type != FieldType::kU64)
    return wire_error("tag " + std::to_string(f.tag) + " is not a u64");
  out = f.as_u64();
  return Status();
}

Status take_i64(const WireField& f, std::int64_t& out) {
  std::uint64_t raw = 0;
  Status s = take_u64(f, raw);
  out = static_cast<std::int64_t>(raw);
  return s;
}

Status take_int(const WireField& f, int& out) {
  std::int64_t wide = 0;
  Status s = take_i64(f, wide);
  if (s.ok()) out = static_cast<int>(wide);
  return s;
}

Status take_long(const WireField& f, long& out) {
  std::int64_t wide = 0;
  Status s = take_i64(f, wide);
  if (s.ok()) out = static_cast<long>(wide);
  return s;
}

Status take_bool(const WireField& f, bool& out) {
  std::uint64_t raw = 0;
  Status s = take_u64(f, raw);
  out = raw != 0;
  return s;
}

Status take_f64(const WireField& f, double& out) {
  if (f.type != FieldType::kF64)
    return wire_error("tag " + std::to_string(f.tag) + " is not an f64");
  out = f.as_f64();
  return Status();
}

Status take_str(const WireField& f, std::string& out) {
  if (f.type != FieldType::kBytes)
    return wire_error("tag " + std::to_string(f.tag) + " is not bytes");
  out = f.as_string();
  return Status();
}

Status take_msg(const WireField& f, std::span<const std::uint8_t>& out) {
  if (f.type != FieldType::kMsg)
    return wire_error("tag " + std::to_string(f.tag) +
                      " is not a nested message");
  out = f.payload;
  return Status();
}

/// Walk every field of a (sub)message payload: `fn(field)` returns a Status;
/// unknown tags must be ignored by fn (version tolerance). Stops at the
/// first decode error.
template <typename Fn>
Status for_each_field(std::span<const std::uint8_t> payload, Fn&& fn) {
  WireReader reader(payload);
  for (;;) {
    Result<std::optional<WireField>> field = reader.next();
    if (!field.ok()) return field.status();
    if (!field.value().has_value()) return Status();
    Status s = fn(*field.value());
    if (!s.ok()) return s;
  }
}

// ----------------------------------------------------- nested codecs ------

// VoltageAxis: 1 start, 2 step, 3 count.
WireWriter encode_axis(const VoltageAxis& axis) {
  WireWriter w;
  w.f64(1, axis.start());
  w.f64(2, axis.step());
  w.u64(3, axis.count());
  return w;
}

Status decode_axis(std::span<const std::uint8_t> payload, VoltageAxis& out) {
  double start = 0.0, step = 1.0;
  std::uint64_t count = 1;
  Status s = for_each_field(payload, [&](const WireField& f) {
    switch (f.tag) {
      case 1: return take_f64(f, start);
      case 2: return take_f64(f, step);
      case 3: return take_u64(f, count);
      default: return Status();
    }
  });
  if (!s.ok()) return s;
  // The VoltageAxis constructor's preconditions, enforced as typed errors
  // (the !(...) form also rejects NaN).
  if (!(step > 0.0) || count < 1 || count > (1u << 24))
    return wire_error("axis with invalid step/count");
  out = VoltageAxis(start, step, static_cast<std::size_t>(count));
  return Status();
}

// TransitionTruth: 1 slope_steep, 2 slope_shallow, 3 tp.x, 4 tp.y.
WireWriter encode_truth(const TransitionTruth& truth) {
  WireWriter w;
  w.f64(1, truth.slope_steep);
  w.f64(2, truth.slope_shallow);
  w.f64(3, truth.triple_point.x);
  w.f64(4, truth.triple_point.y);
  return w;
}

Status decode_truth(std::span<const std::uint8_t> payload,
                    TransitionTruth& out) {
  return for_each_field(payload, [&](const WireField& f) {
    switch (f.tag) {
      case 1: return take_f64(f, out.slope_steep);
      case 2: return take_f64(f, out.slope_shallow);
      case 3: return take_f64(f, out.triple_point.x);
      case 4: return take_f64(f, out.triple_point.y);
      default: return Status();
    }
  });
}

// Csd: 1 x_axis, 2 y_axis, 3 name, 4 truth (optional), 5 pixels (row-major,
// y outer).
WireWriter encode_csd(const Csd& csd) {
  WireWriter w;
  w.msg(1, encode_axis(csd.x_axis()));
  w.msg(2, encode_axis(csd.y_axis()));
  w.str(3, csd.name());
  if (csd.truth().has_value()) w.msg(4, encode_truth(*csd.truth()));
  std::vector<double> pixels;
  pixels.reserve(csd.width() * csd.height());
  for (std::size_t y = 0; y < csd.height(); ++y)
    for (std::size_t x = 0; x < csd.width(); ++x)
      pixels.push_back(csd.current(x, y));
  w.f64_array(5, pixels);
  return w;
}

Status decode_csd(std::span<const std::uint8_t> payload, Csd& out) {
  VoltageAxis x_axis, y_axis;
  bool have_x = false, have_y = false;
  std::string name;
  std::optional<TransitionTruth> truth;
  std::vector<double> pixels;
  Status s = for_each_field(payload, [&](const WireField& f) {
    switch (f.tag) {
      case 1: {
        std::span<const std::uint8_t> nested;
        Status st = take_msg(f, nested);
        if (!st.ok()) return st;
        have_x = true;
        return decode_axis(nested, x_axis);
      }
      case 2: {
        std::span<const std::uint8_t> nested;
        Status st = take_msg(f, nested);
        if (!st.ok()) return st;
        have_y = true;
        return decode_axis(nested, y_axis);
      }
      case 3: return take_str(f, name);
      case 4: {
        std::span<const std::uint8_t> nested;
        Status st = take_msg(f, nested);
        if (!st.ok()) return st;
        truth.emplace();
        return decode_truth(nested, *truth);
      }
      case 5: {
        Result<std::vector<double>> values = f.as_f64_array();
        if (!values.ok()) return values.status();
        pixels = std::move(values).value();
        return Status();
      }
      default: return Status();
    }
  });
  if (!s.ok()) return s;
  if (!have_x || !have_y) return wire_error("CSD message without axes");
  if (pixels.size() != x_axis.count() * y_axis.count())
    return wire_error("CSD pixel count " + std::to_string(pixels.size()) +
                      " does not match axes (" +
                      std::to_string(x_axis.count()) + " x " +
                      std::to_string(y_axis.count()) + ")");
  out = Csd(x_axis, y_axis);
  std::size_t i = 0;
  for (std::size_t y = 0; y < out.height(); ++y)
    for (std::size_t x = 0; x < out.width(); ++x)
      out.current(x, y) = pixels[i++];
  if (truth.has_value()) out.set_truth(*truth);
  out.set_name(std::move(name));
  return Status();
}

// DotArrayParams: tags 1..20, declaration order.
WireWriter encode_params(const DotArrayParams& p) {
  WireWriter w;
  w.u64(1, p.n_dots);
  w.f64(2, p.window_lo);
  w.f64(3, p.window_hi);
  w.f64(4, p.base_voltage);
  w.f64(5, p.alpha_self);
  w.f64(6, p.cross_ratio);
  w.f64(7, p.cross_far_decay);
  w.f64(8, p.charging_energy);
  w.f64(9, p.mutual_coupling);
  w.f64(10, p.transition_fraction_x);
  w.f64(11, p.transition_fraction_y);
  w.f64(12, p.sensor_beta);
  w.f64(13, p.sensor_beta_falloff);
  w.f64(14, p.sensor_gamma);
  w.f64(15, p.sensor_gamma_decay);
  w.f64(16, p.peak_spacing);
  w.f64(17, p.peak_width);
  w.f64(18, p.peak_current);
  w.f64(19, p.flank_offset);
  w.f64(20, p.jitter);
  return w;
}

Status decode_params(std::span<const std::uint8_t> payload,
                     DotArrayParams& p) {
  std::uint64_t n_dots = p.n_dots;
  Status s = for_each_field(payload, [&](const WireField& f) {
    switch (f.tag) {
      case 1: return take_u64(f, n_dots);
      case 2: return take_f64(f, p.window_lo);
      case 3: return take_f64(f, p.window_hi);
      case 4: return take_f64(f, p.base_voltage);
      case 5: return take_f64(f, p.alpha_self);
      case 6: return take_f64(f, p.cross_ratio);
      case 7: return take_f64(f, p.cross_far_decay);
      case 8: return take_f64(f, p.charging_energy);
      case 9: return take_f64(f, p.mutual_coupling);
      case 10: return take_f64(f, p.transition_fraction_x);
      case 11: return take_f64(f, p.transition_fraction_y);
      case 12: return take_f64(f, p.sensor_beta);
      case 13: return take_f64(f, p.sensor_beta_falloff);
      case 14: return take_f64(f, p.sensor_gamma);
      case 15: return take_f64(f, p.sensor_gamma_decay);
      case 16: return take_f64(f, p.peak_spacing);
      case 17: return take_f64(f, p.peak_width);
      case 18: return take_f64(f, p.peak_current);
      case 19: return take_f64(f, p.flank_offset);
      case 20: return take_f64(f, p.jitter);
      default: return Status();
    }
  });
  p.n_dots = static_cast<std::size_t>(n_dots);
  return s;
}

// WireDeviceBackend: 1 params, 2 has_jitter, 3 jitter_seed, 4 pair_index,
// 5 noise_seed, 6 dwell, 7 pixels_per_axis, 8..11 noise tiers, 12 frontier.
WireWriter encode_device(const WireDeviceBackend& d) {
  WireWriter w;
  w.msg(1, encode_params(d.params));
  w.boolean(2, d.has_jitter);
  w.u64(3, d.jitter_seed);
  w.u64(4, d.pair_index);
  w.u64(5, d.noise_seed);
  w.f64(6, d.dwell_seconds);
  w.u64(7, d.pixels_per_axis);
  w.f64(8, d.white_noise_sigma);
  w.f64(9, d.pink_noise_sigma);
  w.f64(10, d.telegraph_amplitude);
  w.f64(11, d.telegraph_rate_hz);
  w.u64(12, d.frontier);
  return w;
}

Status decode_device(std::span<const std::uint8_t> payload,
                     WireDeviceBackend& d) {
  return for_each_field(payload, [&](const WireField& f) {
    switch (f.tag) {
      case 1: {
        std::span<const std::uint8_t> nested;
        Status st = take_msg(f, nested);
        if (!st.ok()) return st;
        return decode_params(nested, d.params);
      }
      case 2: return take_bool(f, d.has_jitter);
      case 3: return take_u64(f, d.jitter_seed);
      case 4: return take_u64(f, d.pair_index);
      case 5: return take_u64(f, d.noise_seed);
      case 6: return take_f64(f, d.dwell_seconds);
      case 7: return take_u64(f, d.pixels_per_axis);
      case 8: return take_f64(f, d.white_noise_sigma);
      case 9: return take_f64(f, d.pink_noise_sigma);
      case 10: return take_f64(f, d.telegraph_amplitude);
      case 11: return take_f64(f, d.telegraph_rate_hz);
      case 12: return take_u64(f, d.frontier);
      default: return Status();
    }
  });
}

// WirePlaybackBackend: 1 csd, 2 dwell.
WireWriter encode_playback(const WirePlaybackBackend& p) {
  WireWriter w;
  w.msg(1, encode_csd(p.csd));
  w.f64(2, p.dwell_seconds);
  return w;
}

Status decode_playback(std::span<const std::uint8_t> payload,
                       WirePlaybackBackend& p) {
  return for_each_field(payload, [&](const WireField& f) {
    switch (f.tag) {
      case 1: {
        std::span<const std::uint8_t> nested;
        Status st = take_msg(f, nested);
        if (!st.ok()) return st;
        return decode_csd(nested, p.csd);
      }
      case 2: return take_f64(f, p.dwell_seconds);
      default: return Status();
    }
  });
}

// Budget: 1 max_probes, 2 max_wall_seconds.
WireWriter encode_budget(const Budget& b) {
  WireWriter w;
  w.i64(1, b.max_probes);
  w.f64(2, b.max_wall_seconds);
  return w;
}

Status decode_budget(std::span<const std::uint8_t> payload, Budget& b) {
  return for_each_field(payload, [&](const WireField& f) {
    switch (f.tag) {
      case 1: return take_long(f, b.max_probes);
      case 2: return take_f64(f, b.max_wall_seconds);
      default: return Status();
    }
  });
}

// FaultSchedule: tags 1..14, declaration order.
WireWriter encode_faults(const FaultSchedule& fs) {
  WireWriter w;
  w.u64(1, fs.seed);
  w.f64(2, fs.transient_rate);
  w.i64(3, fs.transient_burst);
  w.f64(4, fs.hard_fault_rate);
  w.f64(5, fs.stuck_rate);
  w.i64(6, fs.stuck_probes);
  w.f64(7, fs.latency_spike_rate);
  w.f64(8, fs.latency_spike_seconds);
  w.f64(9, fs.drift_volts_per_second);
  w.f64(10, fs.jump_probability);
  w.f64(11, fs.jump_magnitude_volts);
  w.i64(12, fs.jump_at_batch);
  w.f64(13, fs.drift_detect_threshold_volts);
  w.i64(14, fs.drift_detect_lag_batches);
  return w;
}

Status decode_faults(std::span<const std::uint8_t> payload, FaultSchedule& fs) {
  return for_each_field(payload, [&](const WireField& f) {
    switch (f.tag) {
      case 1: return take_u64(f, fs.seed);
      case 2: return take_f64(f, fs.transient_rate);
      case 3: return take_int(f, fs.transient_burst);
      case 4: return take_f64(f, fs.hard_fault_rate);
      case 5: return take_f64(f, fs.stuck_rate);
      case 6: return take_int(f, fs.stuck_probes);
      case 7: return take_f64(f, fs.latency_spike_rate);
      case 8: return take_f64(f, fs.latency_spike_seconds);
      case 9: return take_f64(f, fs.drift_volts_per_second);
      case 10: return take_f64(f, fs.jump_probability);
      case 11: return take_f64(f, fs.jump_magnitude_volts);
      case 12: return take_long(f, fs.jump_at_batch);
      case 13: return take_f64(f, fs.drift_detect_threshold_volts);
      case 14: return take_int(f, fs.drift_detect_lag_batches);
      default: return Status();
    }
  });
}

// RetryPolicy: tags 1..6, declaration order.
WireWriter encode_retry(const RetryPolicy& r) {
  WireWriter w;
  w.i64(1, r.max_attempts);
  w.f64(2, r.base_backoff_seconds);
  w.f64(3, r.backoff_multiplier);
  w.f64(4, r.jitter_fraction);
  w.u64(5, r.jitter_seed);
  w.boolean(6, r.wall_clock_backoff);
  return w;
}

Status decode_retry(std::span<const std::uint8_t> payload, RetryPolicy& r) {
  return for_each_field(payload, [&](const WireField& f) {
    switch (f.tag) {
      case 1: return take_int(f, r.max_attempts);
      case 2: return take_f64(f, r.base_backoff_seconds);
      case 3: return take_f64(f, r.backoff_multiplier);
      case 4: return take_f64(f, r.jitter_fraction);
      case 5: return take_u64(f, r.jitter_seed);
      case 6: return take_bool(f, r.wall_clock_backoff);
      default: return Status();
    }
  });
}

// TransportOptions: tags 1..4, declaration order.
WireWriter encode_transport(const TransportOptions& t) {
  WireWriter w;
  w.f64(1, t.latency_us);
  w.f64(2, t.bandwidth);
  w.i64(3, t.io_depth);
  w.boolean(4, t.wall_clock);
  return w;
}

Status decode_transport(std::span<const std::uint8_t> payload,
                        TransportOptions& t) {
  return for_each_field(payload, [&](const WireField& f) {
    switch (f.tag) {
      case 1: return take_f64(f, t.latency_us);
      case 2: return take_f64(f, t.bandwidth);
      case 3: return take_long(f, t.io_depth);
      case 4: return take_bool(f, t.wall_clock);
      default: return Status();
    }
  });
}

// Status: 1 code, 2 stage, 3 detail.
WireWriter encode_status_fields(const Status& status) {
  WireWriter w;
  w.u64(1, static_cast<std::uint64_t>(status.code()));
  w.str(2, status.stage());
  w.str(3, status.detail());
  return w;
}

Status decode_status_fields(std::span<const std::uint8_t> payload,
                            Status& out) {
  std::uint64_t code = 0;
  std::string stage, detail;
  Status s = for_each_field(payload, [&](const WireField& f) {
    switch (f.tag) {
      case 1: return take_u64(f, code);
      case 2: return take_str(f, stage);
      case 3: return take_str(f, detail);
      default: return Status();
    }
  });
  if (!s.ok()) return s;
  if (code > static_cast<std::uint64_t>(ErrorCode::kInternal))
    return wire_error("unknown error code " + std::to_string(code));
  out = code == 0 ? Status()
                  : Status::failure(static_cast<ErrorCode>(code),
                                    std::move(stage), std::move(detail));
  return Status();
}

// ProbeStats: 1 unique, 2 total, 3 simulated, 4 compute.
WireWriter encode_stats(const ProbeStats& stats) {
  WireWriter w;
  w.i64(1, stats.unique_probes);
  w.i64(2, stats.total_requests);
  w.f64(3, stats.simulated_seconds);
  w.f64(4, stats.compute_seconds);
  return w;
}

Status decode_stats(std::span<const std::uint8_t> payload, ProbeStats& stats) {
  return for_each_field(payload, [&](const WireField& f) {
    switch (f.tag) {
      case 1: return take_long(f, stats.unique_probes);
      case 2: return take_long(f, stats.total_requests);
      case 3: return take_f64(f, stats.simulated_seconds);
      case 4: return take_f64(f, stats.compute_seconds);
      default: return Status();
    }
  });
}

// FaultStats: 1 transient, 2 drift, 3 retries, 4 backoff, 5 reacquired,
// 6 driver batches, 7 driver aborted, 8 driver max inflight, 9 stall s.
WireWriter encode_fault_stats_fields(const FaultStats& stats) {
  WireWriter w;
  w.i64(1, stats.transient_faults);
  w.i64(2, stats.drift_events);
  w.i64(3, stats.retries);
  w.f64(4, stats.backoff_seconds);
  w.i64(5, stats.reacquired_rows);
  w.i64(6, stats.driver_batches);
  w.i64(7, stats.driver_aborted_transfers);
  w.i64(8, stats.driver_max_inflight);
  w.f64(9, stats.transport_stall_seconds);
  return w;
}

Status decode_fault_stats_fields(std::span<const std::uint8_t> payload,
                                 FaultStats& stats) {
  return for_each_field(payload, [&](const WireField& f) {
    switch (f.tag) {
      case 1: return take_long(f, stats.transient_faults);
      case 2: return take_long(f, stats.drift_events);
      case 3: return take_long(f, stats.retries);
      case 4: return take_f64(f, stats.backoff_seconds);
      case 5: return take_long(f, stats.reacquired_rows);
      case 6: return take_long(f, stats.driver_batches);
      case 7: return take_long(f, stats.driver_aborted_transfers);
      case 8: return take_long(f, stats.driver_max_inflight);
      case 9: return take_f64(f, stats.transport_stall_seconds);
      default: return Status();
    }
  });
}

// Verdict: 1 success, 2 reason, 3 a12_rel, 4 a21_rel, 5 angle.
WireWriter encode_verdict(const Verdict& v) {
  WireWriter w;
  w.boolean(1, v.success);
  w.str(2, v.reason);
  w.f64(3, v.alpha12_rel_error);
  w.f64(4, v.alpha21_rel_error);
  w.f64(5, v.virtualized_angle_deg);
  return w;
}

Status decode_verdict(std::span<const std::uint8_t> payload, Verdict& v) {
  return for_each_field(payload, [&](const WireField& f) {
    switch (f.tag) {
      case 1: return take_bool(f, v.success);
      case 2: return take_str(f, v.reason);
      case 3: return take_f64(f, v.alpha12_rel_error);
      case 4: return take_f64(f, v.alpha21_rel_error);
      case 5: return take_f64(f, v.virtualized_angle_deg);
      default: return Status();
    }
  });
}

Status decode_method(std::uint64_t raw, ExtractionMethod& out) {
  if (raw > static_cast<std::uint64_t>(ExtractionMethod::kHoughBaseline))
    return wire_error("unknown extraction method " + std::to_string(raw));
  out = static_cast<ExtractionMethod>(raw);
  return Status();
}

}  // namespace

// ------------------------------------------------------------ request -----

std::vector<std::uint8_t> encode(const WireRequest& request) {
  WireWriter w;
  w.begin(MessageKind::kRequest);
  w.u64(1, static_cast<std::uint64_t>(request.method));
  w.u64(2, static_cast<std::uint64_t>(request.backend));
  // Only the active backend travels: the inactive one is default-valued by
  // construction, and the receiver leaves its default in place.
  if (request.backend == WireBackendKind::kDevice)
    w.msg(3, encode_device(request.device));
  if (request.backend == WireBackendKind::kPlayback)
    w.msg(4, encode_playback(request.playback));
  if (request.x_axis.has_value()) w.msg(5, encode_axis(*request.x_axis));
  if (request.y_axis.has_value()) w.msg(6, encode_axis(*request.y_axis));
  w.u64(7, request.deadline_ms);
  w.msg(8, encode_budget(request.budget));
  w.msg(9, encode_faults(request.faults));
  w.msg(10, encode_retry(request.retry));
  w.str(11, request.label);
  w.msg(12, encode_transport(request.transport));
  return std::move(w).take();
}

Result<WireRequest> decode_request(std::span<const std::uint8_t> buffer) {
  WireReader reader(buffer);
  Status s = reader.expect_envelope(MessageKind::kRequest);
  if (!s.ok()) return s;
  WireRequest out;
  for (;;) {
    Result<std::optional<WireField>> field = reader.next();
    if (!field.ok()) return field.status();
    if (!field.value().has_value()) break;
    const WireField& f = *field.value();
    std::span<const std::uint8_t> nested;
    std::uint64_t raw = 0;
    switch (f.tag) {
      case 1:
        s = take_u64(f, raw);
        if (s.ok()) s = decode_method(raw, out.method);
        break;
      case 2:
        s = take_u64(f, raw);
        if (s.ok()) {
          if (raw > static_cast<std::uint64_t>(WireBackendKind::kPlayback))
            s = wire_error("unknown backend kind " + std::to_string(raw));
          else
            out.backend = static_cast<WireBackendKind>(raw);
        }
        break;
      case 3:
        s = take_msg(f, nested);
        if (s.ok()) s = decode_device(nested, out.device);
        break;
      case 4:
        s = take_msg(f, nested);
        if (s.ok()) s = decode_playback(nested, out.playback);
        break;
      case 5:
        s = take_msg(f, nested);
        if (s.ok()) {
          out.x_axis.emplace();
          s = decode_axis(nested, *out.x_axis);
        }
        break;
      case 6:
        s = take_msg(f, nested);
        if (s.ok()) {
          out.y_axis.emplace();
          s = decode_axis(nested, *out.y_axis);
        }
        break;
      case 7: s = take_u64(f, out.deadline_ms); break;
      case 8:
        s = take_msg(f, nested);
        if (s.ok()) s = decode_budget(nested, out.budget);
        break;
      case 9:
        s = take_msg(f, nested);
        if (s.ok()) s = decode_faults(nested, out.faults);
        break;
      case 10:
        s = take_msg(f, nested);
        if (s.ok()) s = decode_retry(nested, out.retry);
        break;
      case 11: s = take_str(f, out.label); break;
      case 12:
        s = take_msg(f, nested);
        if (s.ok()) s = decode_transport(nested, out.transport);
        break;
      default: break;  // unknown tag: skip (newer writer)
    }
    if (!s.ok()) return s;
  }
  return out;
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

std::vector<std::uint8_t> encode(const WireReport& report) {
  WireWriter w;
  w.begin(MessageKind::kReport);
  w.str(1, report.label);
  w.u64(2, static_cast<std::uint64_t>(report.method));
  w.msg(3, encode_status_fields(report.status));
  w.f64(4, report.virtual_gates.alpha12);
  w.f64(5, report.virtual_gates.alpha21);
  w.f64(6, report.slope_steep);
  w.f64(7, report.slope_shallow);
  w.msg(8, encode_stats(report.stats));
  w.msg(9, encode_fault_stats_fields(report.fault_stats));
  w.i64(10, report.job_attempts);
  w.f64(11, report.wall_seconds);
  w.msg(12, encode_verdict(report.verdict));
  w.boolean(13, report.has_verdict);
  return std::move(w).take();
}

Result<WireReport> decode_report(std::span<const std::uint8_t> buffer) {
  WireReader reader(buffer);
  Status s = reader.expect_envelope(MessageKind::kReport);
  if (!s.ok()) return s;
  WireReport out;
  for (;;) {
    Result<std::optional<WireField>> field = reader.next();
    if (!field.ok()) return field.status();
    if (!field.value().has_value()) break;
    const WireField& f = *field.value();
    std::span<const std::uint8_t> nested;
    std::uint64_t raw = 0;
    switch (f.tag) {
      case 1: s = take_str(f, out.label); break;
      case 2:
        s = take_u64(f, raw);
        if (s.ok()) s = decode_method(raw, out.method);
        break;
      case 3:
        s = take_msg(f, nested);
        if (s.ok()) s = decode_status_fields(nested, out.status);
        break;
      case 4: s = take_f64(f, out.virtual_gates.alpha12); break;
      case 5: s = take_f64(f, out.virtual_gates.alpha21); break;
      case 6: s = take_f64(f, out.slope_steep); break;
      case 7: s = take_f64(f, out.slope_shallow); break;
      case 8:
        s = take_msg(f, nested);
        if (s.ok()) s = decode_stats(nested, out.stats);
        break;
      case 9:
        s = take_msg(f, nested);
        if (s.ok()) s = decode_fault_stats_fields(nested, out.fault_stats);
        break;
      case 10: s = take_i64(f, out.job_attempts); break;
      case 11: s = take_f64(f, out.wall_seconds); break;
      case 12:
        s = take_msg(f, nested);
        if (s.ok()) s = decode_verdict(nested, out.verdict);
        break;
      case 13: s = take_bool(f, out.has_verdict); break;
      default: break;
    }
    if (!s.ok()) return s;
  }
  return out;
}

// ----------------------------------------------------------- progress -----

std::vector<std::uint8_t> encode(const ProgressEvent& event) {
  WireWriter w;
  w.begin(MessageKind::kProgress);
  w.str(1, event.stage);
  w.i64(2, event.probes_used);
  w.f64(3, event.elapsed_seconds);
  w.u64(4, event.sequence);
  w.f64(5, event.timestamp_seconds);
  return std::move(w).take();
}

Result<ProgressEvent> decode_progress(std::span<const std::uint8_t> buffer) {
  WireReader reader(buffer);
  Status s = reader.expect_envelope(MessageKind::kProgress);
  if (!s.ok()) return s;
  ProgressEvent out;
  std::uint64_t sequence = 0;
  s = for_each_field(
      buffer.subspan(4),
      [&](const WireField& f) {
        switch (f.tag) {
          case 1: return take_str(f, out.stage);
          case 2: return take_long(f, out.probes_used);
          case 3: return take_f64(f, out.elapsed_seconds);
          case 4: return take_u64(f, sequence);
          case 5: return take_f64(f, out.timestamp_seconds);
          default: return Status();
        }
      });
  if (!s.ok()) return s;
  out.sequence = static_cast<std::size_t>(sequence);
  return out;
}

// ------------------------------------------------------------- status -----

std::vector<std::uint8_t> encode_status(const Status& status) {
  WireWriter w;
  w.begin(MessageKind::kStatus);
  w.u64(1, static_cast<std::uint64_t>(status.code()));
  w.str(2, status.stage());
  w.str(3, status.detail());
  return std::move(w).take();
}

Status decode_status(std::span<const std::uint8_t> buffer, Status& out) {
  WireReader reader(buffer);
  Status s = reader.expect_envelope(MessageKind::kStatus);
  if (!s.ok()) return s;
  return decode_status_fields(buffer.subspan(4), out);
}

// -------------------------------------------------------- fault stats -----

std::vector<std::uint8_t> encode(const FaultStats& stats) {
  WireWriter w;
  w.begin(MessageKind::kFaultStats);
  w.i64(1, stats.transient_faults);
  w.i64(2, stats.drift_events);
  w.i64(3, stats.retries);
  w.f64(4, stats.backoff_seconds);
  w.i64(5, stats.reacquired_rows);
  w.i64(6, stats.driver_batches);
  w.i64(7, stats.driver_aborted_transfers);
  w.i64(8, stats.driver_max_inflight);
  w.f64(9, stats.transport_stall_seconds);
  return std::move(w).take();
}

Result<FaultStats> decode_fault_stats(std::span<const std::uint8_t> buffer) {
  WireReader reader(buffer);
  Status s = reader.expect_envelope(MessageKind::kFaultStats);
  if (!s.ok()) return s;
  FaultStats out;
  s = decode_fault_stats_fields(
      buffer.subspan(4), out);
  if (!s.ok()) return s;
  return out;
}

// -------------------------------------------------------- materialize -----

Result<MaterializedRequest> materialize(const WireRequest& wire) {
  auto invalid = [](std::string detail) {
    return Status::failure(ErrorCode::kInvalidRequest, "wire",
                           std::move(detail));
  };

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
      if (wire.device.pixels_per_axis > 4096)
        return invalid("device pixels_per_axis above the service bound 4096");
      if (wire.device.frontier >
          static_cast<std::uint64_t>(FrontierStrategy::kMultistartGreedy))
        return invalid("device frontier strategy out of range");
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
      d.frontier = static_cast<FrontierStrategy>(wire.device.frontier);
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
