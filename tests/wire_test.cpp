// Wire serialization (PR 8): exact round trips for every message type over
// both lanes (binary wire/codec, JSON), decoder robustness against
// truncation / bit-flips / version skew (typed kParseError, never UB — CI
// runs this file under ASan+UBSan), and materialize() turning untrusted
// WireRequests into engine-runnable requests with typed validation.
#include "wire/json.hpp"
#include "wire/messages.hpp"
#include "wire/schema.hpp"

#include "common/random.hpp"
#include "test_support.hpp"

#include <gtest/gtest.h>

#include <array>
#include <climits>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace qvg::wire {
namespace {

// ------------------------------------------------------ sample builders ---

/// A device-backed request exercising every scalar field with
/// non-default values (so a dropped field cannot round-trip by accident).
WireRequest sample_device_request(std::uint64_t variant) {
  WireRequest r;
  r.method = variant % 2 == 0 ? ExtractionMethod::kFast
                              : ExtractionMethod::kHoughBaseline;
  r.backend = WireBackendKind::kDevice;
  r.device.params.n_dots = 2 + variant % 3;
  r.device.params.cross_ratio = 0.25 + 0.01 * static_cast<double>(variant % 5);
  r.device.params.jitter = 0.05;
  r.device.has_jitter = variant % 2 == 1;
  r.device.jitter_seed = 7 + variant;
  r.device.pair_index = variant % 2;
  r.device.noise_seed = 123 + variant;
  r.device.dwell_seconds = 0.031;
  r.device.pixels_per_axis = 48 + variant;
  // Noise tiers: clean, white-only, white+pink, full telegraph stack.
  switch (variant % 4) {
    case 3: r.device.telegraph_amplitude = 0.05;
            r.device.telegraph_rate_hz = 1.5;
            [[fallthrough]];
    case 2: r.device.pink_noise_sigma = 0.01;
            [[fallthrough]];
    case 1: r.device.white_noise_sigma = 0.02;
            break;
    default: break;
  }
  r.deadline_ms = 5000 + variant;
  r.budget.max_probes = 100000 + static_cast<long>(variant);
  r.budget.max_wall_seconds = 12.5;
  // Fault configs: none, transient-heavy, drift+jump.
  switch (variant % 3) {
    case 1:
      r.faults.seed = 11 + variant;
      r.faults.transient_rate = 0.02;
      r.faults.transient_burst = 3;
      r.faults.hard_fault_rate = 1e-4;
      r.faults.stuck_rate = 1e-3;
      r.faults.stuck_probes = 17;
      r.faults.latency_spike_rate = 0.01;
      r.faults.latency_spike_seconds = 0.25;
      break;
    case 2:
      r.faults.seed = 13 + variant;
      r.faults.drift_volts_per_second = 1e-5;
      r.faults.jump_probability = 0.001;
      r.faults.jump_magnitude_volts = 0.002;
      r.faults.jump_at_batch = 4;
      r.faults.drift_detect_threshold_volts = 5e-4;
      r.faults.drift_detect_lag_batches = 2;
      break;
    default: break;
  }
  r.retry.max_attempts = 4;
  r.retry.base_backoff_seconds = 0.01;
  r.retry.backoff_multiplier = 2.5;
  r.retry.jitter_fraction = 0.1;
  r.retry.jitter_seed = 99;
  r.retry.wall_clock_backoff = variant % 2 == 0;
  // Transport tiers: disabled, serial link, pipelined wall-clock link.
  switch (variant % 3) {
    case 1:
      r.transport.io_depth = 1;
      r.transport.latency_us = 250.0;
      break;
    case 2:
      r.transport.io_depth = 4;
      r.transport.latency_us = 1500.0;
      r.transport.bandwidth = 2.5e5;
      r.transport.wall_clock = true;
      break;
    default: break;
  }
  r.label = "device-" + std::to_string(variant);
  return r;
}

WireRequest sample_playback_request() {
  testsupport::SyntheticCsdSpec spec;
  spec.pixels = 12;
  spec.noise_sigma = 0.01;
  WireRequest r;
  r.method = ExtractionMethod::kHoughBaseline;
  r.backend = WireBackendKind::kPlayback;
  r.playback.csd = testsupport::make_synthetic_csd(spec);
  r.playback.csd.set_name("synthetic-12");
  r.playback.dwell_seconds = 0.002;
  r.transport.io_depth = 2;
  r.transport.latency_us = 750.0;
  r.transport.bandwidth = 1.0e5;
  r.x_axis = VoltageAxis(-0.5, 0.001, 40);
  r.y_axis = VoltageAxis(-0.25, 0.002, 30);
  r.label = "playback";
  return r;
}

WireReport sample_report(ErrorCode code) {
  WireReport report;
  report.label = "report-" + std::string(error_code_name(code));
  report.method = ExtractionMethod::kHoughBaseline;
  report.status = code == ErrorCode::kOk
                      ? Status()
                      : Status::failure(code, "stage-x", "detail-y");
  report.virtual_gates.alpha12 = 0.251;
  report.virtual_gates.alpha21 = -0.125;
  report.slope_steep = -4.75;
  report.slope_shallow = -0.256;
  report.stats.unique_probes = 4096;
  report.stats.total_requests = 4201;
  report.stats.simulated_seconds = 210.05;
  report.stats.compute_seconds = 0.875;
  report.fault_stats.transient_faults = 3;
  report.fault_stats.drift_events = 1;
  report.fault_stats.retries = 5;
  report.fault_stats.backoff_seconds = 0.07;
  report.fault_stats.reacquired_rows = 2;
  report.fault_stats.driver_batches = 38;
  report.fault_stats.driver_aborted_transfers = 1;
  report.fault_stats.driver_max_inflight = 4;
  report.fault_stats.transport_stall_seconds = 0.0625;
  report.job_attempts = 2;
  report.wall_seconds = 1.625;
  report.verdict.success = code == ErrorCode::kOk;
  report.verdict.reason = "because";
  report.verdict.alpha12_rel_error = 0.001;
  report.verdict.alpha21_rel_error = 0.002;
  report.verdict.virtualized_angle_deg = 89.9;
  report.has_verdict = true;
  return report;
}

// ---------------------------------------------------- golden encodings ----

// Exact encodings of a fixed message corpus on both lanes: hex bytes for the
// binary lane, the exact text for the JSON lane. Any codec change that moves
// a byte or a character fails here, so a refactor of the codecs is checked
// byte for byte against what deployed clients and servers already speak.

/// Every request field set away from its default, on the device backend.
WireRequest golden_device_request() {
  WireRequest r;
  r.method = ExtractionMethod::kHoughBaseline;
  r.backend = WireBackendKind::kDevice;
  DotArrayParams& p = r.device.params;
  p.n_dots = 3;
  p.window_lo = -0.125;
  p.window_hi = 0.375;
  p.base_voltage = 0.0625;
  p.alpha_self = 0.875;
  p.cross_ratio = 0.3125;
  p.cross_far_decay = 0.4375;
  p.charging_energy = 2.5;
  p.mutual_coupling = 0.1875;
  p.transition_fraction_x = 0.34375;
  p.transition_fraction_y = 0.40625;
  p.sensor_beta = -0.65625;
  p.sensor_beta_falloff = 0.71875;
  p.sensor_gamma = 0.03125;
  p.sensor_gamma_decay = 0.53125;
  p.peak_spacing = 0.28125;
  p.peak_width = 0.09375;
  p.peak_current = 1.5;
  p.flank_offset = 0.15625;
  p.jitter = 0.046875;
  r.device.has_jitter = true;
  r.device.jitter_seed = 0xFEEDFACECAFEBEEFull;
  r.device.pair_index = 1;
  r.device.noise_seed = 77;
  r.device.dwell_seconds = 0.03125;
  r.device.pixels_per_axis = 64;
  r.device.white_noise_sigma = 0.015625;
  r.device.pink_noise_sigma = 0.0078125;
  r.device.telegraph_amplitude = 0.046875;
  r.device.telegraph_rate_hz = 1.25;
  r.x_axis = VoltageAxis(-0.5, 0.0078125, 40);
  r.y_axis = VoltageAxis(-0.25, 0.015625, 30);
  r.deadline_ms = 2500;
  r.budget.max_probes = 123456;
  r.budget.max_wall_seconds = 7.5;
  FaultSchedule& f = r.faults;
  f.seed = 0x0123456789ABCDEFull;
  f.transient_rate = 0.015625;
  f.transient_burst = 3;
  f.hard_fault_rate = 0.0009765625;
  f.stuck_rate = 0.001953125;
  f.stuck_probes = 17;
  f.latency_spike_rate = 0.0078125;
  f.latency_spike_seconds = 0.25;
  f.drift_volts_per_second = -0.00048828125;
  f.jump_probability = 0.00390625;
  f.jump_magnitude_volts = 0.001953125;
  f.jump_at_batch = 4;
  f.drift_detect_threshold_volts = 0.000244140625;
  f.drift_detect_lag_batches = 2;
  r.retry.max_attempts = 6;
  r.retry.base_backoff_seconds = 0.015625;
  r.retry.backoff_multiplier = 1.5;
  r.retry.jitter_fraction = 0.125;
  r.retry.jitter_seed = 5;
  r.retry.wall_clock_backoff = true;
  r.transport.latency_us = 250.5;
  r.transport.bandwidth = 125000.0;
  r.transport.io_depth = 3;
  r.transport.wall_clock = true;
  r.label = "golden \"device\"\t\x01";
  return r;
}

/// A 3x2 playback diagram with truth and non-finite pixels.
WireRequest golden_playback_request() {
  WireRequest r;
  r.backend = WireBackendKind::kPlayback;
  Csd csd(VoltageAxis(0.0, 0.25, 3), VoltageAxis(-1.0, 0.5, 2));
  const double pixels[] = {0.5,
                           std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(),
                           -2.5,
                           1e-300};
  for (std::size_t i = 0; i < 6; ++i) csd.current(i % 3, i / 3) = pixels[i];
  TransitionTruth truth;
  truth.slope_steep = -4.5;
  truth.slope_shallow = -0.25;
  truth.triple_point = {0.125, -0.375};
  csd.set_truth(truth);
  csd.set_name("pb");
  r.playback.csd = std::move(csd);
  r.playback.dwell_seconds = 0.004;
  r.label = "playback";
  return r;
}

/// One report per ErrorCode; even codes carry a verdict, odd ones do not.
WireReport golden_report(ErrorCode code) {
  const auto raw = static_cast<long>(code);
  WireReport r;
  r.label = error_code_name(code);
  r.method = raw % 2 == 0 ? ExtractionMethod::kFast
                          : ExtractionMethod::kHoughBaseline;
  r.status = code == ErrorCode::kOk ? Status()
                                    : Status::failure(code, "stage", "detail");
  r.virtual_gates.alpha12 = 0.25;
  r.virtual_gates.alpha21 = -0.125;
  r.slope_steep = -4.0;
  r.slope_shallow = -0.25;
  r.stats.unique_probes = 100 + raw;
  r.stats.total_requests = 200 + raw;
  r.stats.simulated_seconds = 1.5;
  r.stats.compute_seconds = 0.0625;
  r.fault_stats.retries = raw;
  r.job_attempts = 1 + raw % 3;
  r.wall_seconds = 0.5;
  r.has_verdict = raw % 2 == 0;
  if (r.has_verdict) {
    r.verdict.success = code == ErrorCode::kOk;
    r.verdict.reason = "ok";
    r.verdict.alpha12_rel_error = 0.03125;
    r.verdict.alpha21_rel_error = 0.015625;
    r.verdict.virtualized_angle_deg = 89.5;
  }
  return r;
}

ProgressEvent golden_progress() {
  ProgressEvent e;
  e.stage = "sweeps";
  e.probes_used = 777;
  e.elapsed_seconds = 0.125;
  e.sequence = 42;
  e.timestamp_seconds = 1500000.25;
  return e;
}

FaultStats golden_fault_stats() {
  FaultStats s;
  s.transient_faults = 9;
  s.drift_events = 4;
  s.retries = 11;
  s.backoff_seconds = 0.375;
  s.reacquired_rows = 6;
  s.driver_batches = 21;
  s.driver_aborted_transfers = 2;
  s.driver_max_inflight = 3;
  s.transport_stall_seconds = 1.25;
  return s;
}

std::string to_hex(std::span<const std::uint8_t> bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (std::uint8_t b : bytes) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 15]);
  }
  return out;
}

std::vector<std::uint8_t> from_hex(std::string_view hex) {
  std::vector<std::uint8_t> out;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2)
    out.push_back(static_cast<std::uint8_t>(
        std::stoul(std::string(hex.substr(i, 2)), nullptr, 16)));
  return out;
}

// Both lanes of one message type, so the golden check below is one template.
std::vector<std::uint8_t> binary_of(const WireRequest& m) { return encode(m); }
std::vector<std::uint8_t> binary_of(const WireReport& m) { return encode(m); }
std::vector<std::uint8_t> binary_of(const ProgressEvent& m) { return encode(m); }
std::vector<std::uint8_t> binary_of(const FaultStats& m) { return encode(m); }
std::vector<std::uint8_t> binary_of(const Status& m) {
  return encode_status(m);
}
std::string json_of(const WireRequest& m) { return to_json(m); }
std::string json_of(const WireReport& m) { return to_json(m); }
std::string json_of(const ProgressEvent& m) { return to_json(m); }
std::string json_of(const FaultStats& m) { return to_json(m); }
std::string json_of(const Status& m) { return status_to_json(m); }

template <typename M>
Result<M> decode_binary(std::span<const std::uint8_t> bytes) {
  if constexpr (std::is_same_v<M, WireRequest>) return decode_request(bytes);
  if constexpr (std::is_same_v<M, WireReport>) return decode_report(bytes);
  if constexpr (std::is_same_v<M, ProgressEvent>) return decode_progress(bytes);
  if constexpr (std::is_same_v<M, FaultStats>) return decode_fault_stats(bytes);
}

template <typename M>
Result<M> decode_text(std::string_view text) {
  if constexpr (std::is_same_v<M, WireRequest>) return request_from_json(text);
  if constexpr (std::is_same_v<M, WireReport>) return report_from_json(text);
  if constexpr (std::is_same_v<M, ProgressEvent>) return progress_from_json(text);
  if constexpr (std::is_same_v<M, FaultStats>) return fault_stats_from_json(text);
}

/// `message` encodes to exactly `hex` and `json`, and each golden decodes
/// and re-encodes to itself (the decoders read every byte they are given).
template <typename M>
void expect_golden(const M& message, std::string_view hex,
                   std::string_view json, const std::string& what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(to_hex(binary_of(message)), hex);
  EXPECT_EQ(json_of(message), json);
  if constexpr (std::is_same_v<M, Status>) {
    Status from_binary, from_text;
    ASSERT_TRUE(decode_status(from_hex(hex), from_binary).ok());
    ASSERT_TRUE(status_from_json(json, from_text).ok());
    EXPECT_EQ(to_hex(binary_of(from_binary)), hex);
    EXPECT_EQ(json_of(from_text), json);
  } else {
    Result<M> from_binary = decode_binary<M>(from_hex(hex));
    ASSERT_TRUE(from_binary.ok()) << from_binary.status().message();
    EXPECT_EQ(to_hex(binary_of(from_binary.value())), hex);
    Result<M> from_text = decode_text<M>(json);
    ASSERT_TRUE(from_text.ok()) << from_text.status().message();
    EXPECT_EQ(json_of(from_text.value()), json);
  }
}

constexpr std::string_view kGoldenDeviceHex =
    "5751010101000100000000000000020001000000000000000303320100000103c800"
    "0000010003000000000000000201000000000000c0bf0301000000000000d83f0401"
    "000000000000b03f0501000000000000ec3f0601000000000000d43f070100000000"
    "0000dc3f080100000000000004400901000000000000c83f0a01000000000000d63f"
    "0b01000000000000da3f0c01000000000000e5bf0d01000000000000e73f0e010000"
    "00000000a03f0f01000000000000e13f1001000000000000d23f1101000000000000"
    "b83f1201000000000000f83f1301000000000000c43f1401000000000000a83f0200"
    "01000000000000000300efbefecacefaedfe0400010000000000000005004d000000"
    "000000000601000000000000a03f070040000000000000000801000000000000903f"
    "0901000000000000803f0a01000000000000a83f0b01000000000000f43f05031e00"
    "00000101000000000000e0bf0201000000000000803f030028000000000000000603"
    "1e0000000101000000000000d0bf0201000000000000903f03001e00000000000000"
    "0700c409000000000000080314000000010040e20100000000000201000000000000"
    "1e4009038c0000000100efcdab89674523010201000000000000903f030003000000"
    "000000000401000000000000503f0501000000000000603f06001100000000000000"
    "0701000000000000803f0801000000000000d03f090100000000000040bf0a010000"
    "00000000703f0b01000000000000603f0c0004000000000000000d01000000000000"
    "303f0e0002000000000000000a033c00000001000600000000000000020100000000"
    "0000903f0301000000000000f83f0401000000000000c03f05000500000000000000"
    "060001000000000000000b0211000000676f6c64656e20226465766963652209010c"
    "032800000001010000000000506f400201000000008084fe40030003000000000000"
    "0004000100000000000000";
/// golden_device_request() as a client sent it while the device backend
/// still carried tag 12 / "frontier" (here 2, "greedy").
constexpr std::string_view kGoldenFrontierClientHex =
    "57510101010001000000000000000200010000000000000003033c0100000103c800"
    "0000010003000000000000000201000000000000c0bf0301000000000000d83f0401"
    "000000000000b03f0501000000000000ec3f0601000000000000d43f070100000000"
    "0000dc3f080100000000000004400901000000000000c83f0a01000000000000d63f"
    "0b01000000000000da3f0c01000000000000e5bf0d01000000000000e73f0e010000"
    "00000000a03f0f01000000000000e13f1001000000000000d23f1101000000000000"
    "b83f1201000000000000f83f1301000000000000c43f1401000000000000a83f0200"
    "01000000000000000300efbefecacefaedfe0400010000000000000005004d000000"
    "000000000601000000000000a03f070040000000000000000801000000000000903f"
    "0901000000000000803f0a01000000000000a83f0b01000000000000f43f0c000200"
    "00000000000005031e0000000101000000000000e0bf0201000000000000803f0300"
    "280000000000000006031e0000000101000000000000d0bf0201000000000000903f"
    "03001e000000000000000700c409000000000000080314000000010040e201000000"
    "000002010000000000001e4009038c0000000100efcdab8967452301020100000000"
    "0000903f030003000000000000000401000000000000503f0501000000000000603f"
    "060011000000000000000701000000000000803f0801000000000000d03f09010000"
    "0000000040bf0a01000000000000703f0b01000000000000603f0c00040000000000"
    "00000d01000000000000303f0e0002000000000000000a033c000000010006000000"
    "000000000201000000000000903f0301000000000000f83f0401000000000000c03f"
    "05000500000000000000060001000000000000000b0211000000676f6c64656e2022"
    "6465766963652209010c032800000001010000000000506f400201000000008084fe"
    "400300030000000000000004000100000000000000";
constexpr std::string_view kGoldenDeviceJson =
    R"j({"v":1,"method":"hough_baseline","backend":"device","device":{"params")j"
    R"j(:{"n_dots":3,"window_lo":-0.125,"window_hi":0.375,"base_voltage":0.062)j"
    R"j(5,"alpha_self":0.875,"cross_ratio":0.3125,"cross_far_decay":0.4375,"ch)j"
    R"j(arging_energy":2.5,"mutual_coupling":0.1875,"transition_fraction_x":0.)j"
    R"j(34375,"transition_fraction_y":0.40625,"sensor_beta":-0.65625,"sensor_b)j"
    R"j(eta_falloff":0.71875,"sensor_gamma":0.03125,"sensor_gamma_decay":0.531)j"
    R"j(25,"peak_spacing":0.28125,"peak_width":0.09375,"peak_current":1.5,"fla)j"
    R"j(nk_offset":0.15625,"jitter":0.046875},"has_jitter":true,"jitter_seed":)j"
    R"j(18369614221190020847,"pair_index":1,"noise_seed":77,"dwell_seconds":0.)j"
    R"j(03125,"pixels_per_axis":64,"white_noise_sigma":0.015625,"pink_noise_si)j"
    R"j(gma":0.0078125,"telegraph_amplitude":0.046875,"telegraph_rate_hz":1.25)j"
    R"j(},"x_axis":{"start":-0.5,"step":0.0078125,"count":40},"y_axis":{"start)j"
    R"j(":-0.25,"step":0.015625,"count":30},"deadline_ms":2500,"budget":{"max_)j"
    R"j(probes":123456,"max_wall_seconds":7.5},"faults":{"seed":81985529216486)j"
    R"j(895,"transient_rate":0.015625,"transient_burst":3,"hard_fault_rate":0.)j"
    R"j(0009765625,"stuck_rate":0.001953125,"stuck_probes":17,"latency_spike_r)j"
    R"j(ate":0.0078125,"latency_spike_seconds":0.25,"drift_volts_per_second":-)j"
    R"j(0.00048828125,"jump_probability":0.00390625,"jump_magnitude_volts":0.0)j"
    R"j(01953125,"jump_at_batch":4,"drift_detect_threshold_volts":0.0002441406)j"
    R"j(25,"drift_detect_lag_batches":2},"retry":{"max_attempts":6,"base_backo)j"
    R"j(ff_seconds":0.015625,"backoff_multiplier":1.5,"jitter_fraction":0.125,)j"
    R"j("jitter_seed":5,"wall_clock_backoff":true},"transport":{"latency_us":2)j"
    R"j(50.5,"bandwidth":125000,"io_depth":3,"wall_clock":true},"label":"golde)j"
    R"j(n \"device\"\t\u0001"})j";
constexpr std::string_view kGoldenFrontierClientJson =
    R"j({"v":1,"method":"hough_baseline","backend":"device","device":{"param)j"
    R"j(s":{"n_dots":3,"window_lo":-0.125,"window_hi":0.375,"base_voltage":0)j"
    R"j(.0625,"alpha_self":0.875,"cross_ratio":0.3125,"cross_far_decay":0.43)j"
    R"j(75,"charging_energy":2.5,"mutual_coupling":0.1875,"transition_fracti)j"
    R"j(on_x":0.34375,"transition_fraction_y":0.40625,"sensor_beta":-0.65625)j"
    R"j(,"sensor_beta_falloff":0.71875,"sensor_gamma":0.03125,"sensor_gamma_)j"
    R"j(decay":0.53125,"peak_spacing":0.28125,"peak_width":0.09375,"peak_cur)j"
    R"j(rent":1.5,"flank_offset":0.15625,"jitter":0.046875},"has_jitter":tru)j"
    R"j(e,"jitter_seed":18369614221190020847,"pair_index":1,"noise_seed":77,)j"
    R"j("dwell_seconds":0.03125,"pixels_per_axis":64,"white_noise_sigma":0.0)j"
    R"j(15625,"pink_noise_sigma":0.0078125,"telegraph_amplitude":0.046875,"t)j"
    R"j(elegraph_rate_hz":1.25,"frontier":"greedy"},"x_axis":{"start":-0.5,")j"
    R"j(step":0.0078125,"count":40},"y_axis":{"start":-0.25,"step":0.015625,)j"
    R"j("count":30},"deadline_ms":2500,"budget":{"max_probes":123456,"max_wa)j"
    R"j(ll_seconds":7.5},"faults":{"seed":81985529216486895,"transient_rate")j"
    R"j(:0.015625,"transient_burst":3,"hard_fault_rate":0.0009765625,"stuck_)j"
    R"j(rate":0.001953125,"stuck_probes":17,"latency_spike_rate":0.0078125,")j"
    R"j(latency_spike_seconds":0.25,"drift_volts_per_second":-0.00048828125,)j"
    R"j("jump_probability":0.00390625,"jump_magnitude_volts":0.001953125,"ju)j"
    R"j(mp_at_batch":4,"drift_detect_threshold_volts":0.000244140625,"drift_)j"
    R"j(detect_lag_batches":2},"retry":{"max_attempts":6,"base_backoff_secon)j"
    R"j(ds":0.015625,"backoff_multiplier":1.5,"jitter_fraction":0.125,"jitte)j"
    R"j(r_seed":5,"wall_clock_backoff":true},"transport":{"latency_us":250.5)j"
    R"j(,"bandwidth":125000,"io_depth":3,"wall_clock":true},"label":"golden )j"
    R"j(\"device\"\t\u0001"})j";
constexpr std::string_view kGoldenPlaybackHex =
    "5751010101000000000000000000020002000000000000000403c40000000103b400"
    "000001031e000000010100000000000000000201000000000000d03f030003000000"
    "0000000002031e0000000101000000000000f0bf0201000000000000e03f03000200"
    "0000000000000302020000007062040328000000010100000000000012c002010000"
    "00000000d0bf0301000000000000c03f0401000000000000d8bf0502300000000000"
    "00000000e03f000000000000f87f000000000000f07f000000000000f0ff00000000"
    "000004c059f3f8c21f6ea5010201fca9f1d24d62703f070000000000000000000803"
    "14000000010000000000000000000201000000000000000009038c000000010017fa"
    "ed5e0000000002010000000000000000030001000000000000000401000000000000"
    "00000501000000000000000006000800000000000000070100000000000000000801"
    "000000000000e03f090100000000000000000a0100000000000000000b0100000000"
    "000000000c00ffffffffffffffff0d01fca9f1d24d62503f0e000100000000000000"
    "0a033c0000000100040000000000000002019a9999999999a93f0301000000000000"
    "00400401000000000000d03f0500157c4a7fb979379e060000000000000000000b02"
    "08000000706c61796261636b0c032800000001010000000000000000020100000000"
    "000000000300000000000000000004000000000000000000";
constexpr std::string_view kGoldenPlaybackJson =
    R"j({"v":1,"method":"fast","backend":"playback","playback":{"csd":{"x_ax)j"
    R"j(is":{"start":0,"step":0.25,"count":3},"y_axis":{"start":-1,"step":0.)j"
    R"j(5,"count":2},"name":"pb","truth":{"slope_steep":-4.5,"slope_shallow")j"
    R"j(:-0.25,"triple_point_x":0.125,"triple_point_y":-0.375},"pixels":[0.5)j"
    R"j(,"nan","inf","-inf",-2.5,1e-300]},"dwell_seconds":0.0040000000000000)j"
    R"j(001},"deadline_ms":0,"budget":{"max_probes":0,"max_wall_seconds":0},)j"
    R"j("faults":{"seed":1592654359,"transient_rate":0,"transient_burst":1,")j"
    R"j(hard_fault_rate":0,"stuck_rate":0,"stuck_probes":8,"latency_spike_ra)j"
    R"j(te":0,"latency_spike_seconds":0.5,"drift_volts_per_second":0,"jump_p)j"
    R"j(robability":0,"jump_magnitude_volts":0,"jump_at_batch":-1,"drift_det)j"
    R"j(ect_threshold_volts":0.001,"drift_detect_lag_batches":1},"retry":{"m)j"
    R"j(ax_attempts":4,"base_backoff_seconds":0.050000000000000003,"backoff_)j"
    R"j(multiplier":2,"jitter_fraction":0.25,"jitter_seed":11400714819323198)j"
    R"j(485,"wall_clock_backoff":false},"transport":{"latency_us":0,"bandwid)j"
    R"j(th":0,"io_depth":0,"wall_clock":false},"label":"playback"})j";
constexpr std::string_view kGoldenDefaultHex =
    "57510101010000000000000000000200000000000000000007000000000000000000"
    "080314000000010000000000000000000201000000000000000009038c0000000100"
    "17faed5e000000000201000000000000000003000100000000000000040100000000"
    "00000000050100000000000000000600080000000000000007010000000000000000"
    "0801000000000000e03f090100000000000000000a0100000000000000000b010000"
    "0000000000000c00ffffffffffffffff0d01fca9f1d24d62503f0e00010000000000"
    "00000a033c0000000100040000000000000002019a9999999999a93f030100000000"
    "000000400401000000000000d03f0500157c4a7fb979379e06000000000000000000"
    "0b02000000000c032800000001010000000000000000020100000000000000000300"
    "000000000000000004000000000000000000";
constexpr std::string_view kGoldenDefaultJson =
    R"j({"v":1,"method":"fast","backend":"none","deadline_ms":0,"budget":{"m)j"
    R"j(ax_probes":0,"max_wall_seconds":0},"faults":{"seed":1592654359,"tran)j"
    R"j(sient_rate":0,"transient_burst":1,"hard_fault_rate":0,"stuck_rate":0)j"
    R"j(,"stuck_probes":8,"latency_spike_rate":0,"latency_spike_seconds":0.5)j"
    R"j(,"drift_volts_per_second":0,"jump_probability":0,"jump_magnitude_vol)j"
    R"j(ts":0,"jump_at_batch":-1,"drift_detect_threshold_volts":0.001,"drift)j"
    R"j(_detect_lag_batches":1},"retry":{"max_attempts":4,"base_backoff_seco)j"
    R"j(nds":0.050000000000000003,"backoff_multiplier":2,"jitter_fraction":0)j"
    R"j(.25,"jitter_seed":11400714819323198485,"wall_clock_backoff":false},")j"
    R"j(transport":{"latency_us":0,"bandwidth":0,"io_depth":0,"wall_clock":f)j"
    R"j(alse},"label":""})j";
constexpr std::string_view kGoldenProgressHex =
    "57510103010206000000737765657073020009030000000000000301000000000000"
    "c03f04002a0000000000000005010000004060e33641";
constexpr std::string_view kGoldenProgressJson =
    R"j({"v":1,"stage":"sweeps","probes_used":777,"elapsed_seconds":0.125,"s)j"
    R"j(equence":42,"timestamp_seconds":1500000.25})j";
constexpr std::string_view kGoldenStatusHex =
    "5751010401000f000000000000000202060000007261737465720302100000006472"
    "6966742022646574656374656422";
constexpr std::string_view kGoldenStatusJson =
    R"j({"code":"device_drifted","stage":"raster","detail":"drift \"detected)j"
    R"j(\"","v":1})j";
constexpr std::string_view kGoldenFaultStatsHex =
    "57510105010009000000000000000200040000000000000003000b00000000000000"
    "0401000000000000d83f050006000000000000000600150000000000000007000200"
    "000000000000080003000000000000000901000000000000f43f";
constexpr std::string_view kGoldenFaultStatsJson =
    R"j({"transient_faults":9,"drift_events":4,"retries":11,"backoff_seconds)j"
    R"j(":0.375,"reacquired_rows":6,"driver_batches":21,"driver_aborted_tran)j"
    R"j(sfers":2,"driver_max_inflight":3,"transport_stall_seconds":1.25,"v":)j"
    R"j(1})j";
constexpr std::string_view kGoldenOldClientHex =
    "5751010101000100000000000000020001000000000000000303320100000103c800"
    "0000010003000000000000000201000000000000c0bf0301000000000000d83f0401"
    "000000000000b03f0501000000000000ec3f0601000000000000d43f070100000000"
    "0000dc3f080100000000000004400901000000000000c83f0a01000000000000d63f"
    "0b01000000000000da3f0c01000000000000e5bf0d01000000000000e73f0e010000"
    "00000000a03f0f01000000000000e13f1001000000000000d23f1101000000000000"
    "b83f1201000000000000f83f1301000000000000c43f1401000000000000a83f0200"
    "01000000000000000300efbefecacefaedfe0400010000000000000005004d000000"
    "000000000601000000000000a03f070040000000000000000801000000000000903f"
    "0901000000000000803f0a01000000000000a83f0b01000000000000f43f05031e00"
    "00000101000000000000e0bf0201000000000000803f030028000000000000000603"
    "1e0000000101000000000000d0bf0201000000000000903f03001e00000000000000"
    "0700c409000000000000080314000000010040e20100000000000201000000000000"
    "1e4009038c0000000100efcdab89674523010201000000000000903f030003000000"
    "000000000401000000000000503f0501000000000000603f06001100000000000000"
    "0701000000000000803f0801000000000000d03f090100000000000040bf0a010000"
    "00000000703f0b01000000000000603f0c0004000000000000000d01000000000000"
    "303f0e0002000000000000000a033c00000001000600000000000000020100000000"
    "0000903f0301000000000000f83f0401000000000000c03f05000500000000000000"
    "060001000000000000000b0211000000676f6c64656e2022646576696365220901";
constexpr std::string_view kGoldenOldClientJson =
    R"j({"v":1,"method":"hough_baseline","backend":"device","device":{"param)j"
    R"j(s":{"n_dots":3,"window_lo":-0.125,"window_hi":0.375,"base_voltage":0)j"
    R"j(.0625,"alpha_self":0.875,"cross_ratio":0.3125,"cross_far_decay":0.43)j"
    R"j(75,"charging_energy":2.5,"mutual_coupling":0.1875,"transition_fracti)j"
    R"j(on_x":0.34375,"transition_fraction_y":0.40625,"sensor_beta":-0.65625)j"
    R"j(,"sensor_beta_falloff":0.71875,"sensor_gamma":0.03125,"sensor_gamma_)j"
    R"j(decay":0.53125,"peak_spacing":0.28125,"peak_width":0.09375,"peak_cur)j"
    R"j(rent":1.5,"flank_offset":0.15625,"jitter":0.046875},"has_jitter":tru)j"
    R"j(e,"jitter_seed":18369614221190020847,"pair_index":1,"noise_seed":77,)j"
    R"j("dwell_seconds":0.03125,"pixels_per_axis":64,"white_noise_sigma":0.0)j"
    R"j(15625,"pink_noise_sigma":0.0078125,"telegraph_amplitude":0.046875,"t)j"
    R"j(elegraph_rate_hz":1.25},"x_axis":{"start":-0.5,"step":0.0078125,"cou)j"
    R"j(nt":40},"y_axis":{"start":-0.25,"step":0.015625,"count":30},"deadlin)j"
    R"j(e_ms":2500,"budget":{"max_probes":123456,"max_wall_seconds":7.5},"fa)j"
    R"j(ults":{"seed":81985529216486895,"transient_rate":0.015625,"transient)j"
    R"j(_burst":3,"hard_fault_rate":0.0009765625,"stuck_rate":0.001953125,"s)j"
    R"j(tuck_probes":17,"latency_spike_rate":0.0078125,"latency_spike_second)j"
    R"j(s":0.25,"drift_volts_per_second":-0.00048828125,"jump_probability":0)j"
    R"j(.00390625,"jump_magnitude_volts":0.001953125,"jump_at_batch":4,"drif)j"
    R"j(t_detect_threshold_volts":0.000244140625,"drift_detect_lag_batches":)j"
    R"j(2},"retry":{"max_attempts":6,"base_backoff_seconds":0.015625,"backof)j"
    R"j(f_multiplier":1.5,"jitter_fraction":0.125,"jitter_seed":5,"wall_cloc)j"
    R"j(k_backoff":true},"label":"golden \"device\"\t\u0001"})j";
struct GoldenText {
  std::string_view hex;
  std::string_view json;
};
constexpr GoldenText kGoldenReports[] = {
    {// ok
     "575101020102020000006f6b02000000000000000000030316000000010000000000"
     "000000000202000000000302000000000401000000000000d03f0501000000000000"
     "c0bf060100000000000010c00701000000000000d0bf080328000000010064000000"
     "000000000200c8000000000000000301000000000000f83f0401000000000000b03f"
     "09035a00000001000000000000000000020000000000000000000300000000000000"
     "00000401000000000000000005000000000000000000060000000000000000000700"
     "000000000000000008000000000000000000090100000000000000000a0001000000"
     "000000000b01000000000000e03f0c03300000000100010000000000000002020200"
     "00006f6b0301000000000000a03f0401000000000000903f05010000000000605640"
     "0d000100000000000000",
     R"j({"v":1,"label":"ok","method":"fast","status":{"code":"ok","stage":"")j"
     R"j(,"detail":""},"alpha12":0.25,"alpha21":-0.125,"slope_steep":-4,"slop)j"
     R"j(e_shallow":-0.25,"stats":{"unique_probes":100,"total_requests":200,")j"
     R"j(simulated_seconds":1.5,"compute_seconds":0.0625},"fault_stats":{"tra)j"
     R"j(nsient_faults":0,"drift_events":0,"retries":0,"backoff_seconds":0,"r)j"
     R"j(eacquired_rows":0,"driver_batches":0,"driver_aborted_transfers":0,"d)j"
     R"j(river_max_inflight":0,"transport_stall_seconds":0},"job_attempts":1,)j"
     R"j("wall_seconds":0.5,"verdict":{"success":true,"reason":"ok","alpha12_)j"
     R"j(rel_error":0.03125,"alpha21_rel_error":0.015625,"virtualized_angle_d)j"
     R"j(eg":89.5},"has_verdict":true})j"},
    {// invalid_request
     "5751010201020f000000696e76616c69645f72657175657374020001000000000000"
     "00030321000000010001000000000000000202050000007374616765030206000000"
     "64657461696c0401000000000000d03f0501000000000000c0bf0601000000000000"
     "10c00701000000000000d0bf080328000000010065000000000000000200c9000000"
     "000000000301000000000000f83f0401000000000000b03f09035a00000001000000"
     "00000000000002000000000000000000030001000000000000000401000000000000"
     "00000500000000000000000006000000000000000000070000000000000000000800"
     "0000000000000000090100000000000000000a0002000000000000000b0100000000"
     "0000e03f0c032e000000010000000000000000000202000000000301000000000000"
     "000004010000000000000000050100000000000000000d000000000000000000",
     R"j({"v":1,"label":"invalid_request","method":"hough_baseline","status":)j"
     R"j({"code":"invalid_request","stage":"stage","detail":"detail"},"alpha1)j"
     R"j(2":0.25,"alpha21":-0.125,"slope_steep":-4,"slope_shallow":-0.25,"sta)j"
     R"j(ts":{"unique_probes":101,"total_requests":201,"simulated_seconds":1.)j"
     R"j(5,"compute_seconds":0.0625},"fault_stats":{"transient_faults":0,"dri)j"
     R"j(ft_events":0,"retries":1,"backoff_seconds":0,"reacquired_rows":0,"dr)j"
     R"j(iver_batches":0,"driver_aborted_transfers":0,"driver_max_inflight":0)j"
     R"j(,"transport_stall_seconds":0},"job_attempts":2,"wall_seconds":0.5,"v)j"
     R"j(erdict":{"success":false,"reason":"","alpha12_rel_error":0,"alpha21_)j"
     R"j(rel_error":0,"virtualized_angle_deg":0},"has_verdict":false})j"},
    {// anchor_not_found
     "57510102010210000000616e63686f725f6e6f745f666f756e640200000000000000"
     "00000303210000000100020000000000000002020500000073746167650302060000"
     "0064657461696c0401000000000000d03f0501000000000000c0bf06010000000000"
     "0010c00701000000000000d0bf080328000000010066000000000000000200ca0000"
     "00000000000301000000000000f83f0401000000000000b03f09035a000000010000"
     "00000000000000020000000000000000000300020000000000000004010000000000"
     "00000005000000000000000000060000000000000000000700000000000000000008"
     "000000000000000000090100000000000000000a0003000000000000000b01000000"
     "000000e03f0c0330000000010000000000000000000202020000006f6b0301000000"
     "000000a03f0401000000000000903f050100000000006056400d0001000000000000"
     "00",
     R"j({"v":1,"label":"anchor_not_found","method":"fast","status":{"code":")j"
     R"j(anchor_not_found","stage":"stage","detail":"detail"},"alpha12":0.25,)j"
     R"j("alpha21":-0.125,"slope_steep":-4,"slope_shallow":-0.25,"stats":{"un)j"
     R"j(ique_probes":102,"total_requests":202,"simulated_seconds":1.5,"compu)j"
     R"j(te_seconds":0.0625},"fault_stats":{"transient_faults":0,"drift_event)j"
     R"j(s":0,"retries":2,"backoff_seconds":0,"reacquired_rows":0,"driver_bat)j"
     R"j(ches":0,"driver_aborted_transfers":0,"driver_max_inflight":0,"transp)j"
     R"j(ort_stall_seconds":0},"job_attempts":3,"wall_seconds":0.5,"verdict":)j"
     R"j({"success":false,"reason":"ok","alpha12_rel_error":0.03125,"alpha21_)j"
     R"j(rel_error":0.015625,"virtualized_angle_deg":89.5},"has_verdict":true)j"
     R"j(})j"},
    {// insufficient_points
     "57510102010213000000696e73756666696369656e745f706f696e74730200010000"
     "00000000000303210000000100030000000000000002020500000073746167650302"
     "0600000064657461696c0401000000000000d03f0501000000000000c0bf06010000"
     "0000000010c00701000000000000d0bf080328000000010067000000000000000200"
     "cb000000000000000301000000000000f83f0401000000000000b03f09035a000000"
     "01000000000000000000020000000000000000000300030000000000000004010000"
     "00000000000005000000000000000000060000000000000000000700000000000000"
     "000008000000000000000000090100000000000000000a0001000000000000000b01"
     "000000000000e03f0c032e0000000100000000000000000002020000000003010000"
     "00000000000004010000000000000000050100000000000000000d00000000000000"
     "0000",
     R"j({"v":1,"label":"insufficient_points","method":"hough_baseline","stat)j"
     R"j(us":{"code":"insufficient_points","stage":"stage","detail":"detail"})j"
     R"j(,"alpha12":0.25,"alpha21":-0.125,"slope_steep":-4,"slope_shallow":-0)j"
     R"j(.25,"stats":{"unique_probes":103,"total_requests":203,"simulated_sec)j"
     R"j(onds":1.5,"compute_seconds":0.0625},"fault_stats":{"transient_faults)j"
     R"j(":0,"drift_events":0,"retries":3,"backoff_seconds":0,"reacquired_row)j"
     R"j(s":0,"driver_batches":0,"driver_aborted_transfers":0,"driver_max_inf)j"
     R"j(light":0,"transport_stall_seconds":0},"job_attempts":1,"wall_seconds)j"
     R"j(":0.5,"verdict":{"success":false,"reason":"","alpha12_rel_error":0,")j"
     R"j(alpha21_rel_error":0,"virtualized_angle_deg":0},"has_verdict":false})j"},
    {// fit_failed
     "5751010201020a0000006669745f6661696c65640200000000000000000003032100"
     "00000100040000000000000002020500000073746167650302060000006465746169"
     "6c0401000000000000d03f0501000000000000c0bf060100000000000010c0070100"
     "0000000000d0bf080328000000010068000000000000000200cc0000000000000003"
     "01000000000000f83f0401000000000000b03f09035a000000010000000000000000"
     "00020000000000000000000300040000000000000004010000000000000000050000"
     "00000000000000060000000000000000000700000000000000000008000000000000"
     "000000090100000000000000000a0002000000000000000b01000000000000e03f0c"
     "0330000000010000000000000000000202020000006f6b0301000000000000a03f04"
     "01000000000000903f050100000000006056400d000100000000000000",
     R"j({"v":1,"label":"fit_failed","method":"fast","status":{"code":"fit_fa)j"
     R"j(iled","stage":"stage","detail":"detail"},"alpha12":0.25,"alpha21":-0)j"
     R"j(.125,"slope_steep":-4,"slope_shallow":-0.25,"stats":{"unique_probes")j"
     R"j(:104,"total_requests":204,"simulated_seconds":1.5,"compute_seconds":)j"
     R"j(0.0625},"fault_stats":{"transient_faults":0,"drift_events":0,"retrie)j"
     R"j(s":4,"backoff_seconds":0,"reacquired_rows":0,"driver_batches":0,"dri)j"
     R"j(ver_aborted_transfers":0,"driver_max_inflight":0,"transport_stall_se)j"
     R"j(conds":0},"job_attempts":2,"wall_seconds":0.5,"verdict":{"success":f)j"
     R"j(alse,"reason":"ok","alpha12_rel_error":0.03125,"alpha21_rel_error":0)j"
     R"j(.015625,"virtualized_angle_deg":89.5},"has_verdict":true})j"},
    {// degenerate_virtualization
     "57510102010219000000646567656e65726174655f7669727475616c697a6174696f"
     "6e020001000000000000000303210000000100050000000000000002020500000073"
     "7461676503020600000064657461696c0401000000000000d03f0501000000000000"
     "c0bf060100000000000010c00701000000000000d0bf080328000000010069000000"
     "000000000200cd000000000000000301000000000000f83f0401000000000000b03f"
     "09035a00000001000000000000000000020000000000000000000300050000000000"
     "00000401000000000000000005000000000000000000060000000000000000000700"
     "000000000000000008000000000000000000090100000000000000000a0003000000"
     "000000000b01000000000000e03f0c032e0000000100000000000000000002020000"
     "00000301000000000000000004010000000000000000050100000000000000000d00"
     "0000000000000000",
     R"j({"v":1,"label":"degenerate_virtualization","method":"hough_baseline")j"
     R"j(,"status":{"code":"degenerate_virtualization","stage":"stage","detai)j"
     R"j(l":"detail"},"alpha12":0.25,"alpha21":-0.125,"slope_steep":-4,"slope)j"
     R"j(_shallow":-0.25,"stats":{"unique_probes":105,"total_requests":205,"s)j"
     R"j(imulated_seconds":1.5,"compute_seconds":0.0625},"fault_stats":{"tran)j"
     R"j(sient_faults":0,"drift_events":0,"retries":5,"backoff_seconds":0,"re)j"
     R"j(acquired_rows":0,"driver_batches":0,"driver_aborted_transfers":0,"dr)j"
     R"j(iver_max_inflight":0,"transport_stall_seconds":0},"job_attempts":3,")j"
     R"j(wall_seconds":0.5,"verdict":{"success":false,"reason":"","alpha12_re)j"
     R"j(l_error":0,"alpha21_rel_error":0,"virtualized_angle_deg":0},"has_ver)j"
     R"j(dict":false})j"},
    {// line_not_found
     "5751010201020e0000006c696e655f6e6f745f666f756e6402000000000000000000"
     "03032100000001000600000000000000020205000000737461676503020600000064"
     "657461696c0401000000000000d03f0501000000000000c0bf060100000000000010"
     "c00701000000000000d0bf08032800000001006a000000000000000200ce00000000"
     "0000000301000000000000f83f0401000000000000b03f09035a0000000100000000"
     "00000000000200000000000000000003000600000000000000040100000000000000"
     "00050000000000000000000600000000000000000007000000000000000000080000"
     "00000000000000090100000000000000000a0001000000000000000b010000000000"
     "00e03f0c0330000000010000000000000000000202020000006f6b03010000000000"
     "00a03f0401000000000000903f050100000000006056400d000100000000000000",
     R"j({"v":1,"label":"line_not_found","method":"fast","status":{"code":"li)j"
     R"j(ne_not_found","stage":"stage","detail":"detail"},"alpha12":0.25,"alp)j"
     R"j(ha21":-0.125,"slope_steep":-4,"slope_shallow":-0.25,"stats":{"unique)j"
     R"j(_probes":106,"total_requests":206,"simulated_seconds":1.5,"compute_s)j"
     R"j(econds":0.0625},"fault_stats":{"transient_faults":0,"drift_events":0)j"
     R"j(,"retries":6,"backoff_seconds":0,"reacquired_rows":0,"driver_batches)j"
     R"j(":0,"driver_aborted_transfers":0,"driver_max_inflight":0,"transport_)j"
     R"j(stall_seconds":0},"job_attempts":1,"wall_seconds":0.5,"verdict":{"su)j"
     R"j(ccess":false,"reason":"ok","alpha12_rel_error":0.03125,"alpha21_rel_)j"
     R"j(error":0.015625,"virtualized_angle_deg":89.5},"has_verdict":true})j"},
    {// pair_failed
     "5751010201020b000000706169725f6661696c656402000100000000000000030321"
     "00000001000700000000000000020205000000737461676503020600000064657461"
     "696c0401000000000000d03f0501000000000000c0bf060100000000000010c00701"
     "000000000000d0bf08032800000001006b000000000000000200cf00000000000000"
     "0301000000000000f83f0401000000000000b03f09035a0000000100000000000000"
     "00000200000000000000000003000700000000000000040100000000000000000500"
     "00000000000000000600000000000000000007000000000000000000080000000000"
     "00000000090100000000000000000a0002000000000000000b01000000000000e03f"
     "0c032e00000001000000000000000000020200000000030100000000000000000401"
     "0000000000000000050100000000000000000d000000000000000000",
     R"j({"v":1,"label":"pair_failed","method":"hough_baseline","status":{"co)j"
     R"j(de":"pair_failed","stage":"stage","detail":"detail"},"alpha12":0.25,)j"
     R"j("alpha21":-0.125,"slope_steep":-4,"slope_shallow":-0.25,"stats":{"un)j"
     R"j(ique_probes":107,"total_requests":207,"simulated_seconds":1.5,"compu)j"
     R"j(te_seconds":0.0625},"fault_stats":{"transient_faults":0,"drift_event)j"
     R"j(s":0,"retries":7,"backoff_seconds":0,"reacquired_rows":0,"driver_bat)j"
     R"j(ches":0,"driver_aborted_transfers":0,"driver_max_inflight":0,"transp)j"
     R"j(ort_stall_seconds":0},"job_attempts":2,"wall_seconds":0.5,"verdict":)j"
     R"j({"success":false,"reason":"","alpha12_rel_error":0,"alpha21_rel_erro)j"
     R"j(r":0,"virtualized_angle_deg":0},"has_verdict":false})j"},
    {// io_error
     "57510102010208000000696f5f6572726f7202000000000000000000030321000000"
     "01000800000000000000020205000000737461676503020600000064657461696c04"
     "01000000000000d03f0501000000000000c0bf060100000000000010c00701000000"
     "000000d0bf08032800000001006c000000000000000200d000000000000000030100"
     "0000000000f83f0401000000000000b03f09035a0000000100000000000000000002"
     "00000000000000000003000800000000000000040100000000000000000500000000"
     "00000000000600000000000000000007000000000000000000080000000000000000"
     "00090100000000000000000a0003000000000000000b01000000000000e03f0c0330"
     "000000010000000000000000000202020000006f6b0301000000000000a03f040100"
     "0000000000903f050100000000006056400d000100000000000000",
     R"j({"v":1,"label":"io_error","method":"fast","status":{"code":"io_error)j"
     R"j(","stage":"stage","detail":"detail"},"alpha12":0.25,"alpha21":-0.125)j"
     R"j(,"slope_steep":-4,"slope_shallow":-0.25,"stats":{"unique_probes":108)j"
     R"j(,"total_requests":208,"simulated_seconds":1.5,"compute_seconds":0.06)j"
     R"j(25},"fault_stats":{"transient_faults":0,"drift_events":0,"retries":8)j"
     R"j(,"backoff_seconds":0,"reacquired_rows":0,"driver_batches":0,"driver_)j"
     R"j(aborted_transfers":0,"driver_max_inflight":0,"transport_stall_second)j"
     R"j(s":0},"job_attempts":3,"wall_seconds":0.5,"verdict":{"success":false)j"
     R"j(,"reason":"ok","alpha12_rel_error":0.03125,"alpha21_rel_error":0.015)j"
     R"j(625,"virtualized_angle_deg":89.5},"has_verdict":true})j"},
    {// parse_error
     "5751010201020b00000070617273655f6572726f7202000100000000000000030321"
     "00000001000900000000000000020205000000737461676503020600000064657461"
     "696c0401000000000000d03f0501000000000000c0bf060100000000000010c00701"
     "000000000000d0bf08032800000001006d000000000000000200d100000000000000"
     "0301000000000000f83f0401000000000000b03f09035a0000000100000000000000"
     "00000200000000000000000003000900000000000000040100000000000000000500"
     "00000000000000000600000000000000000007000000000000000000080000000000"
     "00000000090100000000000000000a0001000000000000000b01000000000000e03f"
     "0c032e00000001000000000000000000020200000000030100000000000000000401"
     "0000000000000000050100000000000000000d000000000000000000",
     R"j({"v":1,"label":"parse_error","method":"hough_baseline","status":{"co)j"
     R"j(de":"parse_error","stage":"stage","detail":"detail"},"alpha12":0.25,)j"
     R"j("alpha21":-0.125,"slope_steep":-4,"slope_shallow":-0.25,"stats":{"un)j"
     R"j(ique_probes":109,"total_requests":209,"simulated_seconds":1.5,"compu)j"
     R"j(te_seconds":0.0625},"fault_stats":{"transient_faults":0,"drift_event)j"
     R"j(s":0,"retries":9,"backoff_seconds":0,"reacquired_rows":0,"driver_bat)j"
     R"j(ches":0,"driver_aborted_transfers":0,"driver_max_inflight":0,"transp)j"
     R"j(ort_stall_seconds":0},"job_attempts":1,"wall_seconds":0.5,"verdict":)j"
     R"j({"success":false,"reason":"","alpha12_rel_error":0,"alpha21_rel_erro)j"
     R"j(r":0,"virtualized_angle_deg":0},"has_verdict":false})j"},
    {// cancelled
     "5751010201020900000063616e63656c6c6564020000000000000000000303210000"
     "0001000a00000000000000020205000000737461676503020600000064657461696c"
     "0401000000000000d03f0501000000000000c0bf060100000000000010c007010000"
     "00000000d0bf08032800000001006e000000000000000200d2000000000000000301"
     "000000000000f83f0401000000000000b03f09035a00000001000000000000000000"
     "0200000000000000000003000a000000000000000401000000000000000005000000"
     "00000000000006000000000000000000070000000000000000000800000000000000"
     "0000090100000000000000000a0002000000000000000b01000000000000e03f0c03"
     "30000000010000000000000000000202020000006f6b0301000000000000a03f0401"
     "000000000000903f050100000000006056400d000100000000000000",
     R"j({"v":1,"label":"cancelled","method":"fast","status":{"code":"cancell)j"
     R"j(ed","stage":"stage","detail":"detail"},"alpha12":0.25,"alpha21":-0.1)j"
     R"j(25,"slope_steep":-4,"slope_shallow":-0.25,"stats":{"unique_probes":1)j"
     R"j(10,"total_requests":210,"simulated_seconds":1.5,"compute_seconds":0.)j"
     R"j(0625},"fault_stats":{"transient_faults":0,"drift_events":0,"retries")j"
     R"j(:10,"backoff_seconds":0,"reacquired_rows":0,"driver_batches":0,"driv)j"
     R"j(er_aborted_transfers":0,"driver_max_inflight":0,"transport_stall_sec)j"
     R"j(onds":0},"job_attempts":2,"wall_seconds":0.5,"verdict":{"success":fa)j"
     R"j(lse,"reason":"ok","alpha12_rel_error":0.03125,"alpha21_rel_error":0.)j"
     R"j(015625,"virtualized_angle_deg":89.5},"has_verdict":true})j"},
    {// deadline_exceeded
     "57510102010211000000646561646c696e655f657863656564656402000100000000"
     "00000003032100000001000b00000000000000020205000000737461676503020600"
     "000064657461696c0401000000000000d03f0501000000000000c0bf060100000000"
     "000010c00701000000000000d0bf08032800000001006f000000000000000200d300"
     "0000000000000301000000000000f83f0401000000000000b03f09035a0000000100"
     "00000000000000000200000000000000000003000b00000000000000040100000000"
     "00000000050000000000000000000600000000000000000007000000000000000000"
     "08000000000000000000090100000000000000000a0003000000000000000b010000"
     "00000000e03f0c032e00000001000000000000000000020200000000030100000000"
     "0000000004010000000000000000050100000000000000000d000000000000000000",
     R"j({"v":1,"label":"deadline_exceeded","method":"hough_baseline","status)j"
     R"j(":{"code":"deadline_exceeded","stage":"stage","detail":"detail"},"al)j"
     R"j(pha12":0.25,"alpha21":-0.125,"slope_steep":-4,"slope_shallow":-0.25,)j"
     R"j("stats":{"unique_probes":111,"total_requests":211,"simulated_seconds)j"
     R"j(":1.5,"compute_seconds":0.0625},"fault_stats":{"transient_faults":0,)j"
     R"j("drift_events":0,"retries":11,"backoff_seconds":0,"reacquired_rows":)j"
     R"j(0,"driver_batches":0,"driver_aborted_transfers":0,"driver_max_inflig)j"
     R"j(ht":0,"transport_stall_seconds":0},"job_attempts":3,"wall_seconds":0)j"
     R"j(.5,"verdict":{"success":false,"reason":"","alpha12_rel_error":0,"alp)j"
     R"j(ha21_rel_error":0,"virtualized_angle_deg":0},"has_verdict":false})j"},
    {// budget_exhausted
     "575101020102100000006275646765745f6578686175737465640200000000000000"
     "000003032100000001000c0000000000000002020500000073746167650302060000"
     "0064657461696c0401000000000000d03f0501000000000000c0bf06010000000000"
     "0010c00701000000000000d0bf080328000000010070000000000000000200d40000"
     "00000000000301000000000000f83f0401000000000000b03f09035a000000010000"
     "000000000000000200000000000000000003000c0000000000000004010000000000"
     "00000005000000000000000000060000000000000000000700000000000000000008"
     "000000000000000000090100000000000000000a0001000000000000000b01000000"
     "000000e03f0c0330000000010000000000000000000202020000006f6b0301000000"
     "000000a03f0401000000000000903f050100000000006056400d0001000000000000"
     "00",
     R"j({"v":1,"label":"budget_exhausted","method":"fast","status":{"code":")j"
     R"j(budget_exhausted","stage":"stage","detail":"detail"},"alpha12":0.25,)j"
     R"j("alpha21":-0.125,"slope_steep":-4,"slope_shallow":-0.25,"stats":{"un)j"
     R"j(ique_probes":112,"total_requests":212,"simulated_seconds":1.5,"compu)j"
     R"j(te_seconds":0.0625},"fault_stats":{"transient_faults":0,"drift_event)j"
     R"j(s":0,"retries":12,"backoff_seconds":0,"reacquired_rows":0,"driver_ba)j"
     R"j(tches":0,"driver_aborted_transfers":0,"driver_max_inflight":0,"trans)j"
     R"j(port_stall_seconds":0},"job_attempts":1,"wall_seconds":0.5,"verdict")j"
     R"j(:{"success":false,"reason":"ok","alpha12_rel_error":0.03125,"alpha21)j"
     R"j(_rel_error":0.015625,"virtualized_angle_deg":89.5},"has_verdict":tru)j"
     R"j(e})j"},
    {// probe_transient
     "5751010201020f00000070726f62655f7472616e7369656e74020001000000000000"
     "0003032100000001000d000000000000000202050000007374616765030206000000"
     "64657461696c0401000000000000d03f0501000000000000c0bf0601000000000000"
     "10c00701000000000000d0bf080328000000010071000000000000000200d5000000"
     "000000000301000000000000f83f0401000000000000b03f09035a00000001000000"
     "0000000000000200000000000000000003000d000000000000000401000000000000"
     "00000500000000000000000006000000000000000000070000000000000000000800"
     "0000000000000000090100000000000000000a0002000000000000000b0100000000"
     "0000e03f0c032e000000010000000000000000000202000000000301000000000000"
     "000004010000000000000000050100000000000000000d000000000000000000",
     R"j({"v":1,"label":"probe_transient","method":"hough_baseline","status":)j"
     R"j({"code":"probe_transient","stage":"stage","detail":"detail"},"alpha1)j"
     R"j(2":0.25,"alpha21":-0.125,"slope_steep":-4,"slope_shallow":-0.25,"sta)j"
     R"j(ts":{"unique_probes":113,"total_requests":213,"simulated_seconds":1.)j"
     R"j(5,"compute_seconds":0.0625},"fault_stats":{"transient_faults":0,"dri)j"
     R"j(ft_events":0,"retries":13,"backoff_seconds":0,"reacquired_rows":0,"d)j"
     R"j(river_batches":0,"driver_aborted_transfers":0,"driver_max_inflight":)j"
     R"j(0,"transport_stall_seconds":0},"job_attempts":2,"wall_seconds":0.5,")j"
     R"j(verdict":{"success":false,"reason":"","alpha12_rel_error":0,"alpha21)j"
     R"j(_rel_error":0,"virtualized_angle_deg":0},"has_verdict":false})j"},
    {// probe_hard_fault
     "5751010201021000000070726f62655f686172645f6661756c740200000000000000"
     "000003032100000001000e0000000000000002020500000073746167650302060000"
     "0064657461696c0401000000000000d03f0501000000000000c0bf06010000000000"
     "0010c00701000000000000d0bf080328000000010072000000000000000200d60000"
     "00000000000301000000000000f83f0401000000000000b03f09035a000000010000"
     "000000000000000200000000000000000003000e0000000000000004010000000000"
     "00000005000000000000000000060000000000000000000700000000000000000008"
     "000000000000000000090100000000000000000a0003000000000000000b01000000"
     "000000e03f0c0330000000010000000000000000000202020000006f6b0301000000"
     "000000a03f0401000000000000903f050100000000006056400d0001000000000000"
     "00",
     R"j({"v":1,"label":"probe_hard_fault","method":"fast","status":{"code":")j"
     R"j(probe_hard_fault","stage":"stage","detail":"detail"},"alpha12":0.25,)j"
     R"j("alpha21":-0.125,"slope_steep":-4,"slope_shallow":-0.25,"stats":{"un)j"
     R"j(ique_probes":114,"total_requests":214,"simulated_seconds":1.5,"compu)j"
     R"j(te_seconds":0.0625},"fault_stats":{"transient_faults":0,"drift_event)j"
     R"j(s":0,"retries":14,"backoff_seconds":0,"reacquired_rows":0,"driver_ba)j"
     R"j(tches":0,"driver_aborted_transfers":0,"driver_max_inflight":0,"trans)j"
     R"j(port_stall_seconds":0},"job_attempts":3,"wall_seconds":0.5,"verdict")j"
     R"j(:{"success":false,"reason":"ok","alpha12_rel_error":0.03125,"alpha21)j"
     R"j(_rel_error":0.015625,"virtualized_angle_deg":89.5},"has_verdict":tru)j"
     R"j(e})j"},
    {// device_drifted
     "5751010201020e0000006465766963655f6472696674656402000100000000000000"
     "03032100000001000f00000000000000020205000000737461676503020600000064"
     "657461696c0401000000000000d03f0501000000000000c0bf060100000000000010"
     "c00701000000000000d0bf080328000000010073000000000000000200d700000000"
     "0000000301000000000000f83f0401000000000000b03f09035a0000000100000000"
     "00000000000200000000000000000003000f00000000000000040100000000000000"
     "00050000000000000000000600000000000000000007000000000000000000080000"
     "00000000000000090100000000000000000a0001000000000000000b010000000000"
     "00e03f0c032e00000001000000000000000000020200000000030100000000000000"
     "0004010000000000000000050100000000000000000d000000000000000000",
     R"j({"v":1,"label":"device_drifted","method":"hough_baseline","status":{)j"
     R"j("code":"device_drifted","stage":"stage","detail":"detail"},"alpha12")j"
     R"j(:0.25,"alpha21":-0.125,"slope_steep":-4,"slope_shallow":-0.25,"stats)j"
     R"j(":{"unique_probes":115,"total_requests":215,"simulated_seconds":1.5,)j"
     R"j("compute_seconds":0.0625},"fault_stats":{"transient_faults":0,"drift)j"
     R"j(_events":0,"retries":15,"backoff_seconds":0,"reacquired_rows":0,"dri)j"
     R"j(ver_batches":0,"driver_aborted_transfers":0,"driver_max_inflight":0,)j"
     R"j("transport_stall_seconds":0},"job_attempts":1,"wall_seconds":0.5,"ve)j"
     R"j(rdict":{"success":false,"reason":"","alpha12_rel_error":0,"alpha21_r)j"
     R"j(el_error":0,"virtualized_angle_deg":0},"has_verdict":false})j"},
    {// overloaded
     "5751010201020a0000006f7665726c6f616465640200000000000000000003032100"
     "00000100100000000000000002020500000073746167650302060000006465746169"
     "6c0401000000000000d03f0501000000000000c0bf060100000000000010c0070100"
     "0000000000d0bf080328000000010074000000000000000200d80000000000000003"
     "01000000000000f83f0401000000000000b03f09035a000000010000000000000000"
     "00020000000000000000000300100000000000000004010000000000000000050000"
     "00000000000000060000000000000000000700000000000000000008000000000000"
     "000000090100000000000000000a0002000000000000000b01000000000000e03f0c"
     "0330000000010000000000000000000202020000006f6b0301000000000000a03f04"
     "01000000000000903f050100000000006056400d000100000000000000",
     R"j({"v":1,"label":"overloaded","method":"fast","status":{"code":"overlo)j"
     R"j(aded","stage":"stage","detail":"detail"},"alpha12":0.25,"alpha21":-0)j"
     R"j(.125,"slope_steep":-4,"slope_shallow":-0.25,"stats":{"unique_probes")j"
     R"j(:116,"total_requests":216,"simulated_seconds":1.5,"compute_seconds":)j"
     R"j(0.0625},"fault_stats":{"transient_faults":0,"drift_events":0,"retrie)j"
     R"j(s":16,"backoff_seconds":0,"reacquired_rows":0,"driver_batches":0,"dr)j"
     R"j(iver_aborted_transfers":0,"driver_max_inflight":0,"transport_stall_s)j"
     R"j(econds":0},"job_attempts":2,"wall_seconds":0.5,"verdict":{"success":)j"
     R"j(false,"reason":"ok","alpha12_rel_error":0.03125,"alpha21_rel_error":)j"
     R"j(0.015625,"virtualized_angle_deg":89.5},"has_verdict":true})j"},
    {// internal
     "57510102010208000000696e7465726e616c02000100000000000000030321000000"
     "01001100000000000000020205000000737461676503020600000064657461696c04"
     "01000000000000d03f0501000000000000c0bf060100000000000010c00701000000"
     "000000d0bf080328000000010075000000000000000200d900000000000000030100"
     "0000000000f83f0401000000000000b03f09035a0000000100000000000000000002"
     "00000000000000000003001100000000000000040100000000000000000500000000"
     "00000000000600000000000000000007000000000000000000080000000000000000"
     "00090100000000000000000a0003000000000000000b01000000000000e03f0c032e"
     "00000001000000000000000000020200000000030100000000000000000401000000"
     "0000000000050100000000000000000d000000000000000000",
     R"j({"v":1,"label":"internal","method":"hough_baseline","status":{"code")j"
     R"j(:"internal","stage":"stage","detail":"detail"},"alpha12":0.25,"alpha)j"
     R"j(21":-0.125,"slope_steep":-4,"slope_shallow":-0.25,"stats":{"unique_p)j"
     R"j(robes":117,"total_requests":217,"simulated_seconds":1.5,"compute_sec)j"
     R"j(onds":0.0625},"fault_stats":{"transient_faults":0,"drift_events":0,")j"
     R"j(retries":17,"backoff_seconds":0,"reacquired_rows":0,"driver_batches")j"
     R"j(:0,"driver_aborted_transfers":0,"driver_max_inflight":0,"transport_s)j"
     R"j(tall_seconds":0},"job_attempts":3,"wall_seconds":0.5,"verdict":{"suc)j"
     R"j(cess":false,"reason":"","alpha12_rel_error":0,"alpha21_rel_error":0,)j"
     R"j("virtualized_angle_deg":0},"has_verdict":false})j"},
};

TEST(WireGoldenTest, RequestsEncodeToTheGoldenBytesAndText) {
  expect_golden(golden_device_request(), kGoldenDeviceHex, kGoldenDeviceJson,
                "device");
  expect_golden(golden_playback_request(), kGoldenPlaybackHex,
                kGoldenPlaybackJson, "playback");
  expect_golden(WireRequest{}, kGoldenDefaultHex, kGoldenDefaultJson,
                "default");
}

TEST(WireGoldenTest, ReportsEncodeToTheGoldenBytesAndTextForEveryErrorCode) {
  ASSERT_EQ(std::size(kGoldenReports),
            static_cast<std::size_t>(ErrorCode::kInternal) + 1);
  for (std::size_t raw = 0; raw < std::size(kGoldenReports); ++raw) {
    const auto code = static_cast<ErrorCode>(raw);
    expect_golden(golden_report(code), kGoldenReports[raw].hex,
                  kGoldenReports[raw].json, error_code_name(code));
  }
}

TEST(WireGoldenTest, ProgressStatusAndFaultStatsEncodeToTheGoldens) {
  expect_golden(golden_progress(), kGoldenProgressHex, kGoldenProgressJson,
                "progress");
  expect_golden(Status::failure(ErrorCode::kDeviceDrifted, "raster",
                                "drift \"detected\""),
                kGoldenStatusHex, kGoldenStatusJson, "status");
  expect_golden(golden_fault_stats(), kGoldenFaultStatsHex,
                kGoldenFaultStatsJson, "fault stats");
}

TEST(WireGoldenTest, OldClientSubsetsDecodeToTheDefaults) {
  // An old client sends no transport (request tag 12 / "transport"); it
  // decodes to the default.
  WireRequest expected = golden_device_request();
  expected.transport = TransportOptions{};
  Result<WireRequest> binary = decode_request(from_hex(kGoldenOldClientHex));
  ASSERT_TRUE(binary.ok()) << binary.status().message();
  EXPECT_EQ(binary.value(), expected);
  Result<WireRequest> text = request_from_json(kGoldenOldClientJson);
  ASSERT_TRUE(text.ok()) << text.status().message();
  EXPECT_EQ(text.value(), expected);
}

TEST(WireGoldenTest, FrontierClientsDecodeToTheGoldenRequest) {
  // Device tag 12 / "frontier" is reserved: a client that still sends the
  // deleted strategy choice is served as if it had left it out.
  Result<WireRequest> binary =
      decode_request(from_hex(kGoldenFrontierClientHex));
  ASSERT_TRUE(binary.ok()) << binary.status().message();
  EXPECT_EQ(binary.value(), golden_device_request());
  Result<WireRequest> text = request_from_json(kGoldenFrontierClientJson);
  ASSERT_TRUE(text.ok()) << text.status().message();
  EXPECT_EQ(text.value(), golden_device_request());
}

// ------------------------------------------------- binary round trips -----

TEST(WireCodecTest, DeviceRequestsRoundTripExactAcrossVariants) {
  // 12 variants cover both methods, all noise tiers, all fault configs, and
  // jittered/unjittered devices.
  for (std::uint64_t variant = 0; variant < 12; ++variant) {
    const WireRequest request = sample_device_request(variant);
    const std::vector<std::uint8_t> bytes = encode(request);
    Result<WireRequest> decoded = decode_request(bytes);
    ASSERT_TRUE(decoded.ok()) << decoded.status().message();
    EXPECT_EQ(decoded.value(), request) << "variant " << variant;
  }
}

TEST(WireCodecTest, PlaybackRequestRoundTripsPixelsTruthAndAxes) {
  const WireRequest request = sample_playback_request();
  Result<WireRequest> decoded = decode_request(encode(request));
  ASSERT_TRUE(decoded.ok()) << decoded.status().message();
  EXPECT_EQ(decoded.value(), request);
  // Spot-check the deep parts operator== already covered.
  const Csd& csd = decoded.value().playback.csd;
  EXPECT_EQ(csd.name(), "synthetic-12");
  ASSERT_TRUE(csd.truth().has_value());
  EXPECT_EQ(csd.truth()->slope_steep, request.playback.csd.truth()->slope_steep);
  EXPECT_EQ(csd.current(5, 7), request.playback.csd.current(5, 7));
}

TEST(WireCodecTest, NonFiniteDoublesRoundTripBitExactOnTheBinaryLane) {
  WireRequest request = sample_device_request(0);
  request.budget.max_wall_seconds = std::numeric_limits<double>::infinity();
  request.device.white_noise_sigma = -0.0;
  request.device.pink_noise_sigma = std::numeric_limits<double>::quiet_NaN();
  Result<WireRequest> decoded = decode_request(encode(request));
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(std::isinf(decoded.value().budget.max_wall_seconds));
  EXPECT_TRUE(std::isnan(decoded.value().device.pink_noise_sigma));
  EXPECT_TRUE(std::signbit(decoded.value().device.white_noise_sigma));
}

TEST(WireCodecTest, ReportsRoundTripForEveryErrorCode) {
  for (int raw = 0; raw <= static_cast<int>(ErrorCode::kInternal); ++raw) {
    const ErrorCode code = static_cast<ErrorCode>(raw);
    const WireReport report = sample_report(code);
    Result<WireReport> decoded = decode_report(encode(report));
    ASSERT_TRUE(decoded.ok()) << error_code_name(code) << ": "
                              << decoded.status().message();
    EXPECT_EQ(decoded.value(), report) << error_code_name(code);
  }
}

TEST(WireCodecTest, PartialReportRoundTripsItsZeroes) {
  // An interrupted job's report: failure status, no verdict, partial stats.
  WireReport report;
  report.label = "partial";
  report.status = Status::failure(ErrorCode::kBudgetExhausted, "sweeps",
                                  "probe budget exhausted");
  report.stats.unique_probes = 120;
  report.stats.total_requests = 131;
  Result<WireReport> decoded = decode_report(encode(report));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), report);
  EXPECT_FALSE(decoded.value().has_verdict);
  EXPECT_EQ(decoded.value().virtual_gates.alpha12, 0.0);
}

TEST(WireCodecTest, ProgressStatusAndFaultStatsRoundTrip) {
  ProgressEvent event;
  event.stage = "sweeps";
  event.probes_used = 777;
  event.elapsed_seconds = 0.125;
  event.sequence = 42;
  event.timestamp_seconds = 1.5e6;
  Result<ProgressEvent> progress = decode_progress(encode(event));
  ASSERT_TRUE(progress.ok());
  EXPECT_EQ(progress.value(), event);

  const Status status =
      Status::failure(ErrorCode::kDeviceDrifted, "raster", "drift detected");
  Status decoded_status;
  ASSERT_TRUE(decode_status(encode_status(status), decoded_status).ok());
  EXPECT_EQ(decoded_status, status);
  Status ok_roundtrip;
  ASSERT_TRUE(decode_status(encode_status(Status()), ok_roundtrip).ok());
  EXPECT_TRUE(ok_roundtrip.ok());

  FaultStats stats;
  stats.transient_faults = 9;
  stats.drift_events = 4;
  stats.retries = 11;
  stats.backoff_seconds = 0.375;
  stats.reacquired_rows = 6;
  stats.driver_batches = 21;
  stats.driver_aborted_transfers = 2;
  stats.driver_max_inflight = 3;
  stats.transport_stall_seconds = 1.25;
  Result<FaultStats> fault_stats = decode_fault_stats(encode(stats));
  ASSERT_TRUE(fault_stats.ok());
  EXPECT_EQ(fault_stats.value(), stats);
}

// ----------------------------------------------------- decoder attacks ----

TEST(WireCodecTest, EnvelopeSkewIsATypedParseError) {
  std::vector<std::uint8_t> bytes = encode(sample_device_request(1));

  std::vector<std::uint8_t> bad_magic = bytes;
  bad_magic[0] ^= 0xFF;
  EXPECT_EQ(decode_request(bad_magic).status().code(), ErrorCode::kParseError);

  std::vector<std::uint8_t> bad_version = bytes;
  bad_version[2] = kWireVersion + 1;
  Result<WireRequest> skewed = decode_request(bad_version);
  EXPECT_EQ(skewed.status().code(), ErrorCode::kParseError);
  EXPECT_EQ(skewed.status().stage(), "wire");

  // A request envelope fed to the report decoder (and vice versa).
  EXPECT_EQ(decode_report(bytes).status().code(), ErrorCode::kParseError);
  EXPECT_EQ(decode_request(encode(sample_report(ErrorCode::kOk))).status().code(),
            ErrorCode::kParseError);

  // Too short to even hold an envelope.
  EXPECT_EQ(decode_request(std::vector<std::uint8_t>{0x57}).status().code(),
            ErrorCode::kParseError);
  EXPECT_EQ(decode_request(std::vector<std::uint8_t>{}).status().code(),
            ErrorCode::kParseError);
}

TEST(WireCodecTest, EveryTruncationEitherFailsTypedOrDecodesCleanly) {
  // Chopping the buffer at every possible length must never read out of
  // bounds (ASan would catch it) and never produce anything but a clean
  // decode or a typed kParseError. Prefixes that end exactly on a field
  // boundary legitimately decode (fewer fields = defaults); everything else
  // must be rejected.
  const std::vector<std::uint8_t> bytes = encode(sample_playback_request());
  std::size_t rejected = 0;
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    Result<WireRequest> decoded = decode_request(
        std::span<const std::uint8_t>(bytes.data(), len));
    if (!decoded.ok()) {
      EXPECT_EQ(decoded.status().code(), ErrorCode::kParseError)
          << "len " << len;
      EXPECT_EQ(decoded.status().stage(), "wire") << "len " << len;
      ++rejected;
    }
  }
  // The overwhelming majority of cut points land mid-field.
  EXPECT_GT(rejected, bytes.size() / 2);
}

TEST(WireCodecTest, RandomBitFlipsNeverCrashTheDecoders) {
  // Deterministic fuzz: flip 1-8 random bytes per round and run every
  // decoder over the result. Any outcome is acceptable except UB; typed
  // failures must come from the wire stage.
  const std::vector<std::uint8_t> request_bytes =
      encode(sample_device_request(2));
  const std::vector<std::uint8_t> report_bytes =
      encode(sample_report(ErrorCode::kPairFailed));
  Rng rng(20260808);
  for (int round = 0; round < 400; ++round) {
    std::vector<std::uint8_t> mutated =
        round % 2 == 0 ? request_bytes : report_bytes;
    const int flips = static_cast<int>(rng.uniform_int(1, 8));
    for (int i = 0; i < flips; ++i) {
      const auto at = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(mutated.size()) - 1));
      mutated[at] ^= static_cast<std::uint8_t>(1u << rng.uniform_int(0, 7));
    }
    for (const auto& status :
         {decode_request(mutated).status(), decode_report(mutated).status(),
          decode_progress(mutated).status(),
          decode_fault_stats(mutated).status()}) {
      if (!status.ok())
        EXPECT_EQ(status.code(), ErrorCode::kParseError) << status.message();
    }
    Status ignored;
    (void)decode_status(mutated, ignored);
  }
}

TEST(WireCodecTest, UnknownTagsAreSkippedForForwardCompatibility) {
  // A newer writer appends a field this decoder does not know; the decode
  // must succeed and return everything it does know.
  WireWriter w;
  w.begin(MessageKind::kProgress);
  w.str(1, "fit");
  w.i64(2, 55);
  w.f64(200, 1.25);           // future tag, f64
  w.str(201, "future-field"); // future tag, bytes
  w.u64(4, 9);
  const std::vector<std::uint8_t> bytes = std::move(w).take();
  Result<ProgressEvent> decoded = decode_progress(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().message();
  EXPECT_EQ(decoded.value().stage, "fit");
  EXPECT_EQ(decoded.value().probes_used, 55);
  EXPECT_EQ(decoded.value().sequence, 9u);
}

TEST(WireCodecTest, WrongWireTypeForAKnownTagIsATypedParseError) {
  WireWriter w;
  w.begin(MessageKind::kProgress);
  w.f64(1, 3.5);  // tag 1 is the stage string
  const std::vector<std::uint8_t> bytes = std::move(w).take();
  Result<ProgressEvent> decoded = decode_progress(bytes);
  EXPECT_EQ(decoded.status().code(), ErrorCode::kParseError);
}

TEST(WireCodecTest, OutOfRangeEnumsAreTypedParseErrors) {
  {
    WireWriter w;
    w.begin(MessageKind::kRequest);
    w.u64(1, 99);  // no such ExtractionMethod
    EXPECT_EQ(decode_request(std::move(w).take()).status().code(),
              ErrorCode::kParseError);
  }
  {
    WireWriter w;
    w.begin(MessageKind::kRequest);
    w.u64(2, 7);  // no such backend kind
    EXPECT_EQ(decode_request(std::move(w).take()).status().code(),
              ErrorCode::kParseError);
  }
  {
    WireWriter w;
    w.begin(MessageKind::kStatus);
    w.u64(1, 1000);  // no such ErrorCode
    Status out;
    EXPECT_EQ(decode_status(std::move(w).take(), out).code(),
              ErrorCode::kParseError);
  }
}

// ------------------------------------------------------- JSON lane --------

TEST(WireJsonTest, RequestsRoundTripThroughJson) {
  for (std::uint64_t variant = 0; variant < 6; ++variant) {
    const WireRequest request = sample_device_request(variant);
    Result<WireRequest> decoded = request_from_json(to_json(request));
    ASSERT_TRUE(decoded.ok()) << decoded.status().message();
    EXPECT_EQ(decoded.value(), request) << "variant " << variant;
  }
  const WireRequest playback = sample_playback_request();
  Result<WireRequest> decoded = request_from_json(to_json(playback));
  ASSERT_TRUE(decoded.ok()) << decoded.status().message();
  EXPECT_EQ(decoded.value(), playback);
}

TEST(WireJsonTest, ReportsRoundTripThroughJsonForEveryErrorCode) {
  for (int raw = 0; raw <= static_cast<int>(ErrorCode::kInternal); ++raw) {
    const WireReport report = sample_report(static_cast<ErrorCode>(raw));
    Result<WireReport> decoded = report_from_json(to_json(report));
    ASSERT_TRUE(decoded.ok()) << decoded.status().message();
    EXPECT_EQ(decoded.value(), report)
        << error_code_name(static_cast<ErrorCode>(raw));
  }
}

TEST(WireJsonTest, ProgressStatusAndFaultStatsRoundTripThroughJson) {
  ProgressEvent event;
  event.stage = "anchors";
  event.probes_used = 360;
  event.elapsed_seconds = 0.0625;
  event.sequence = 3;
  event.timestamp_seconds = 123456.789;
  Result<ProgressEvent> progress = progress_from_json(to_json(event));
  ASSERT_TRUE(progress.ok()) << progress.status().message();
  EXPECT_EQ(progress.value(), event);

  const Status status = Status::failure(ErrorCode::kOverloaded, "queue",
                                        "tenant backlog full");
  Status decoded_status;
  ASSERT_TRUE(status_from_json(status_to_json(status), decoded_status).ok());
  EXPECT_EQ(decoded_status, status);

  FaultStats stats;
  stats.retries = 2;
  stats.backoff_seconds = 0.011;
  stats.driver_batches = 7;
  stats.driver_aborted_transfers = 1;
  stats.driver_max_inflight = 2;
  stats.transport_stall_seconds = 0.033;
  Result<FaultStats> fault_stats = fault_stats_from_json(to_json(stats));
  ASSERT_TRUE(fault_stats.ok());
  EXPECT_EQ(fault_stats.value(), stats);
}

TEST(WireJsonTest, NonFiniteDoublesSurviveTheJsonLane) {
  WireReport report = sample_report(ErrorCode::kOk);
  report.wall_seconds = std::numeric_limits<double>::quiet_NaN();
  report.slope_steep = std::numeric_limits<double>::infinity();
  report.slope_shallow = -std::numeric_limits<double>::infinity();
  Result<WireReport> decoded = report_from_json(to_json(report));
  ASSERT_TRUE(decoded.ok()) << decoded.status().message();
  EXPECT_TRUE(std::isnan(decoded.value().wall_seconds));
  EXPECT_EQ(decoded.value().slope_steep,
            std::numeric_limits<double>::infinity());
  EXPECT_EQ(decoded.value().slope_shallow,
            -std::numeric_limits<double>::infinity());
}

TEST(WireJsonTest, MalformedJsonAndVersionSkewAreTypedParseErrors) {
  for (const char* bad : {"", "{", "{\"v\":1", "[1,2", "{\"v\":1}extra",
                          "nope", "{\"v\":true}", "{\"label\":\"x\"}"}) {
    Result<WireRequest> decoded = request_from_json(bad);
    EXPECT_FALSE(decoded.ok()) << "input: " << bad;
    EXPECT_EQ(decoded.status().code(), ErrorCode::kParseError)
        << "input: " << bad;
  }
  // Version skew: same document, wrong "v".
  std::string skewed = to_json(sample_device_request(0));
  const std::size_t at = skewed.find("\"v\":1");
  ASSERT_NE(at, std::string::npos);
  skewed.replace(at, 5, "\"v\":9");
  EXPECT_EQ(request_from_json(skewed).status().code(), ErrorCode::kParseError);
}

TEST(WireJsonTest, DeeplyNestedJsonIsRejectedNotOverflowed) {
  std::string evil(1000, '[');
  evil += std::string(1000, ']');
  Result<JsonValue> parsed = parse_json(evil);
  EXPECT_EQ(parsed.status().code(), ErrorCode::kParseError);
}

TEST(WireJsonTest, UnknownKeysAreIgnored) {
  std::string text = to_json(sample_device_request(3));
  ASSERT_EQ(text.back(), '}');
  text.insert(text.size() - 1, ",\"future_key\":{\"deep\":[1,2,3]}");
  Result<WireRequest> decoded = request_from_json(text);
  ASSERT_TRUE(decoded.ok()) << decoded.status().message();
  EXPECT_EQ(decoded.value(), sample_device_request(3));
}

TEST(WireJsonTest, ExactIntegersSurviveTheDoubleThreshold) {
  // 2^63 + 9 is not representable as a double; the exact-integer lane must
  // carry it anyway.
  WireRequest request = sample_device_request(0);
  request.device.noise_seed = 9223372036854775817ull;
  request.device.jitter_seed = 0xFFFFFFFFFFFFFFFFull;
  Result<WireRequest> decoded = request_from_json(to_json(request));
  ASSERT_TRUE(decoded.ok()) << decoded.status().message();
  EXPECT_EQ(decoded.value().device.noise_seed, 9223372036854775817ull);
  EXPECT_EQ(decoded.value().device.jitter_seed, 0xFFFFFFFFFFFFFFFFull);
}

// ---------------------------------------------------------- materialize ---

TEST(WireMaterializeTest, DeviceRequestRebuildsABitIdenticalDevice) {
  // The wire carries params + jitter seed; materialize must reproduce the
  // exact device a direct build_dot_array call produces.
  WireRequest wire = sample_device_request(1);  // has_jitter = true
  ASSERT_TRUE(wire.device.has_jitter);
  Result<MaterializedRequest> m = materialize(wire);
  ASSERT_TRUE(m.ok()) << m.status().message();

  Rng jitter(wire.device.jitter_seed);
  const BuiltDevice direct = build_dot_array(wire.device.params, &jitter);
  ASSERT_NE(m.value().request.device.device, nullptr);
  const BuiltDevice& rebuilt = *m.value().request.device.device;
  ASSERT_EQ(rebuilt.base_voltages.size(), direct.base_voltages.size());
  for (std::size_t i = 0; i < direct.base_voltages.size(); ++i)
    EXPECT_EQ(rebuilt.base_voltages[i], direct.base_voltages[i]) << i;
  EXPECT_EQ(m.value().request.device.noise_seed, wire.device.noise_seed);
  EXPECT_EQ(m.value().request.label, wire.label);
}

TEST(WireMaterializeTest, PlaybackRequestBorrowsItsOwnedCsd) {
  const WireRequest wire = sample_playback_request();
  Result<MaterializedRequest> m = materialize(wire);
  ASSERT_TRUE(m.ok()) << m.status().message();
  ASSERT_NE(m.value().request.playback.csd, nullptr);
  EXPECT_EQ(m.value().request.playback.csd, m.value().csd.get());
  EXPECT_EQ(m.value().request.playback.csd->current(3, 4),
            wire.playback.csd.current(3, 4));
  ASSERT_TRUE(m.value().request.x_axis.has_value());
  EXPECT_EQ(m.value().request.x_axis->count(), wire.x_axis->count());
}

TEST(WireMaterializeTest, UntrustedInputFailsTypedNotAborted) {
  WireRequest none;
  EXPECT_EQ(materialize(none).status().code(), ErrorCode::kInvalidRequest);

  WireRequest bad_dots = sample_device_request(0);
  bad_dots.device.params.n_dots = 1;
  EXPECT_EQ(materialize(bad_dots).status().code(), ErrorCode::kInvalidRequest);
  bad_dots.device.params.n_dots = 65;
  EXPECT_EQ(materialize(bad_dots).status().code(), ErrorCode::kInvalidRequest);

  WireRequest bad_window = sample_device_request(0);
  bad_window.device.params.window_hi = bad_window.device.params.window_lo;
  EXPECT_EQ(materialize(bad_window).status().code(),
            ErrorCode::kInvalidRequest);

  WireRequest bad_ratio = sample_device_request(0);
  bad_ratio.device.params.cross_ratio = 1.5;
  EXPECT_EQ(materialize(bad_ratio).status().code(), ErrorCode::kInvalidRequest);
  bad_ratio.device.params.cross_ratio =
      std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(materialize(bad_ratio).status().code(), ErrorCode::kInvalidRequest);

  WireRequest huge = sample_device_request(0);
  huge.device.pixels_per_axis = 1u << 20;
  EXPECT_EQ(materialize(huge).status().code(), ErrorCode::kInvalidRequest);

  WireRequest empty_csd;
  empty_csd.backend = WireBackendKind::kPlayback;
  EXPECT_EQ(materialize(empty_csd).status().code(),
            ErrorCode::kInvalidRequest);
}

TEST(WireMaterializeTest, TransportRidesIntoTheEngineRequestAndValidates) {
  // The transport model crosses materialize() intact...
  WireRequest request = sample_playback_request();
  request.transport.io_depth = 4;
  request.transport.latency_us = 500.0;
  request.transport.bandwidth = 1.0e6;
  request.transport.wall_clock = true;
  Result<MaterializedRequest> good = materialize(request);
  ASSERT_TRUE(good.ok()) << good.status().message();
  EXPECT_EQ(good.value().request.transport, request.transport);

  // ...and out-of-range fields are rejected typed, not clamped silently.
  WireRequest deep = sample_playback_request();
  deep.transport.io_depth = 257;
  EXPECT_EQ(materialize(deep).status().code(), ErrorCode::kInvalidRequest);
  WireRequest negative_latency = sample_playback_request();
  negative_latency.transport.latency_us = -1.0;
  EXPECT_EQ(materialize(negative_latency).status().code(),
            ErrorCode::kInvalidRequest);
  WireRequest negative_bandwidth = sample_playback_request();
  negative_bandwidth.transport.bandwidth = -0.5;
  EXPECT_EQ(materialize(negative_bandwidth).status().code(),
            ErrorCode::kInvalidRequest);
}

TEST(WireMaterializeTest, NonFiniteTransportIsRejectedOnBothLanes) {
  // Both lanes carry NaN and +-inf bit-exact (the JSON lane as "nan"/"inf"
  // strings), so validation must reject them rather than let them reach
  // the sim-clock charge or a wall-clock duration_cast.
  const double non_finite[] = {std::numeric_limits<double>::quiet_NaN(),
                               std::numeric_limits<double>::infinity(),
                               -std::numeric_limits<double>::infinity()};
  for (const double value : non_finite) {
    for (const bool latency_field : {true, false}) {
      WireRequest request = sample_playback_request();
      request.transport.io_depth = 4;
      (latency_field ? request.transport.latency_us
                     : request.transport.bandwidth) = value;
      Result<WireRequest> binary = decode_request(encode(request));
      ASSERT_TRUE(binary.ok()) << binary.status().message();
      Result<WireRequest> json = request_from_json(to_json(request));
      ASSERT_TRUE(json.ok()) << json.status().message();
      for (const WireRequest* decoded : {&binary.value(), &json.value()})
        EXPECT_EQ(materialize(*decoded).status().code(),
                  ErrorCode::kInvalidRequest)
            << value << (latency_field ? " latency_us" : " bandwidth");
    }
  }
}

TEST(WireJsonTest, TransportObjectIsOptionalForOldClients) {
  // A request serialized before PR 10 has no "transport" object; decoding
  // must yield the disabled default (synchronous adapter lane).
  WireRequest request = sample_device_request(0);
  request.transport.io_depth = 8;  // must NOT survive the strip below
  std::string text = to_json(request);
  const std::size_t begin = text.find(",\"transport\":{");
  ASSERT_NE(begin, std::string::npos);
  const std::size_t end = text.find('}', begin);  // flat object: first brace
  ASSERT_NE(end, std::string::npos);
  text.erase(begin, end - begin + 1);

  Result<WireRequest> decoded = request_from_json(text);
  ASSERT_TRUE(decoded.ok()) << decoded.status().message();
  EXPECT_EQ(decoded.value().transport, TransportOptions{});
  EXPECT_FALSE(decoded.value().transport.enabled());
  request.transport = {};
  EXPECT_EQ(decoded.value(), request);
}

// ------------------------------------------------ untrusted-input bounds ---

TEST(WireMaterializeTest, ScanWindowOverrideIsBoundedOnBothLanes) {
  // An override axis sizes the raster like pixels_per_axis does: two
  // 65536-point axes would ask the Hough baseline for ~34 GB.
  for (const bool device : {true, false}) {
    WireRequest request =
        device ? sample_device_request(0) : sample_playback_request();
    request.method = ExtractionMethod::kHoughBaseline;
    for (const std::size_t points : {4096u, 4097u, 65536u}) {
      for (const bool both : {false, true}) {
        request.x_axis = VoltageAxis(-0.5, 1e-5, points);
        request.y_axis = VoltageAxis(-0.5, 1e-5, both ? points : 40);
        Result<WireRequest> binary = decode_request(encode(request));
        ASSERT_TRUE(binary.ok()) << binary.status().message();
        Result<WireRequest> json = request_from_json(to_json(request));
        ASSERT_TRUE(json.ok()) << json.status().message();
        for (const WireRequest* decoded : {&binary.value(), &json.value()}) {
          const Status status = materialize(*decoded).status();
          if (points <= 4096)
            EXPECT_TRUE(status.ok()) << status.message();
          else
            EXPECT_EQ(status.code(), ErrorCode::kInvalidRequest)
                << points << " points, device " << device;
        }
      }
    }
  }
}

/// `text` with the number after "key": replaced by `value`.
std::string with_number(std::string text, const std::string& key,
                        const std::string& value) {
  const std::size_t at = text.find("\"" + key + "\":");
  EXPECT_NE(at, std::string::npos) << key;
  const std::size_t begin = at + key.size() + 3;
  text.replace(begin, text.find_first_of(",}", begin) - begin, value);
  return text;
}

TEST(WireCodecTest, IntegersThatDoNotFitTheirMemberAreParseErrors) {
  // (request tag, nested tag) of every int member: retry.max_attempts and
  // faults.transient_burst / stuck_probes / drift_detect_lag_batches.
  const std::pair<std::uint8_t, std::uint8_t> ints[] = {
      {10, 1}, {9, 3}, {9, 6}, {9, 14}};
  for (const auto& [outer, inner] : ints) {
    for (const std::int64_t value :
         {std::int64_t{4294967297}, std::int64_t{INT_MAX} + 1,
          std::int64_t{INT_MIN} - 1, std::int64_t{INT_MAX},
          std::int64_t{INT_MIN}}) {
      WireWriter nested;
      nested.i64(inner, value);
      WireWriter w;
      w.begin(MessageKind::kRequest);
      w.msg(outer, nested);
      const Status status = decode_request(std::move(w).take()).status();
      if (value >= INT_MIN && value <= INT_MAX)
        EXPECT_TRUE(status.ok()) << status.message();
      else
        EXPECT_EQ(status.code(), ErrorCode::kParseError)
            << int{outer} << "/" << int{inner} << " = " << value;
    }
  }
}

TEST(WireJsonTest, IntegersThatDoNotFitTheirMemberAreParseErrors) {
  const std::string text = to_json(WireRequest{});
  for (const char* key : {"max_attempts", "transient_burst", "stuck_probes",
                          "drift_detect_lag_batches"}) {
    for (const std::string value :
         {"4294967297", "2147483648", "-2147483649", "2147483647",
          "-2147483648"}) {
      Result<WireRequest> decoded =
          request_from_json(with_number(text, key, value));
      if (value == "2147483647" || value == "-2147483648")
        EXPECT_TRUE(decoded.ok()) << decoded.status().message();
      else
        EXPECT_EQ(decoded.status().code(), ErrorCode::kParseError)
            << key << " = " << value;
    }
  }
}

TEST(WireJsonTest, NegativeZeroKeepsItsSignOnDoubleFieldsOnly) {
  // The token "-0" is integral text: it must still read as the integer 0,
  // but its double reading is -0.0.
  Result<JsonValue> parsed = parse_json("-0");
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(std::signbit(parsed.value().as_double()));
  ASSERT_TRUE(parsed.value().exact_i64());
  EXPECT_EQ(parsed.value().as_i64(), 0);

  // Double fields: -0.0 survives the JSON lane like it does the binary one.
  WireReport report = sample_report(ErrorCode::kOk);
  report.slope_steep = -0.0;
  report.virtual_gates.alpha12 = -0.0;
  const std::string text = to_json(report);
  ASSERT_NE(text.find(":-0,"), std::string::npos) << text;
  Result<WireReport> decoded = report_from_json(text);
  ASSERT_TRUE(decoded.ok()) << decoded.status().message();
  EXPECT_TRUE(std::signbit(decoded.value().slope_steep));
  EXPECT_TRUE(std::signbit(decoded.value().virtual_gates.alpha12));
  Result<WireReport> binary = decode_report(encode(report));
  ASSERT_TRUE(binary.ok()) << binary.status().message();
  EXPECT_TRUE(std::signbit(binary.value().slope_steep));

  // Integer fields: "-0" still decodes to 0.
  const std::string request_text =
      with_number(with_number(to_json(WireRequest{}), "max_attempts", "-0"),
                  "transient_burst", "-0");
  Result<WireRequest> request = request_from_json(request_text);
  ASSERT_TRUE(request.ok()) << request.status().message();
  EXPECT_EQ(request.value().retry.max_attempts, 0);
  EXPECT_EQ(request.value().faults.transient_burst, 0);
}

TEST(WireCodecTest, ANamedBackendWithoutItsMessageIsAParseError) {
  // On both lanes the backend a request names must travel with it...
  for (const auto backend :
       {WireBackendKind::kDevice, WireBackendKind::kPlayback}) {
    WireWriter w;
    w.begin(MessageKind::kRequest);
    w.u64(2, static_cast<std::uint64_t>(backend));
    EXPECT_EQ(decode_request(std::move(w).take()).status().code(),
              ErrorCode::kParseError);
  }
  for (const char* text :
       {R"({"v":1,"backend":"device"})", R"({"v":1,"backend":"playback"})"})
    EXPECT_EQ(request_from_json(text).status().code(), ErrorCode::kParseError)
        << text;
  // ...and a playback backend must carry its diagram.
  WireWriter playback;
  playback.f64(2, 0.1);
  WireWriter w;
  w.begin(MessageKind::kRequest);
  w.u64(2, static_cast<std::uint64_t>(WireBackendKind::kPlayback));
  w.msg(4, playback);
  EXPECT_EQ(decode_request(std::move(w).take()).status().code(),
            ErrorCode::kParseError);
  const char* text =
      R"({"v":1,"backend":"playback","playback":{"dwell_seconds":0.1}})";
  EXPECT_EQ(request_from_json(text).status().code(), ErrorCode::kParseError);
}

// ---------------------------------------------------- table self-check ----

template <typename T>
constexpr bool rows_are_distinct() {
  std::array<std::uint8_t, schema::kRowCount<T>> tags{};
  std::array<std::string_view, schema::kRowCount<T>> keys{};
  schema::for_each_row<T>([&](const auto& row, std::size_t i) {
    tags[i] = row.tag;
    keys[i] = row.key;
  });
  for (std::size_t i = 0; i < tags.size(); ++i)
    for (std::size_t j = i + 1; j < tags.size(); ++j)
      if (tags[i] == tags[j] || keys[i] == keys[j]) return false;
  return true;
}

static_assert(rows_are_distinct<schema::AxisFields>());
static_assert(rows_are_distinct<schema::CsdFields>());
static_assert(rows_are_distinct<schema::StatusFields>());
static_assert(rows_are_distinct<TransitionTruth>());
static_assert(rows_are_distinct<DotArrayParams>());
static_assert(rows_are_distinct<WireDeviceBackend>());
static_assert(rows_are_distinct<WirePlaybackBackend>());
static_assert(rows_are_distinct<Budget>());
static_assert(rows_are_distinct<FaultSchedule>());
static_assert(rows_are_distinct<RetryPolicy>());
static_assert(rows_are_distinct<TransportOptions>());
static_assert(rows_are_distinct<WireRequest>());
static_assert(rows_are_distinct<ProbeStats>());
static_assert(rows_are_distinct<FaultStats>());
static_assert(rows_are_distinct<Verdict>());
static_assert(rows_are_distinct<WireReport>());
static_assert(rows_are_distinct<ProgressEvent>());

/// Keeps a diagram proxy consistent with its (possibly poked) axes.
void fix_up(auto&) {}
void fix_up(schema::CsdFields& csd) {
  csd.pixels.resize(csd.x_axis->count() * csd.y_axis->count(), 0.25);
}

/// Walks every row under `message` that travels, through nested tables and
/// proxies, numbering them from `index`; the `target`-th is set to a value
/// its default does not have, and `key` names it.
template <typename T>
void poke_row(T& message, std::size_t& index, std::size_t target,
              std::string& key) {
  if constexpr (schema::Proxied<T>) {
    auto proxy = schema::fields_of(message);
    poke_row(proxy, index, target, key);
    fix_up(proxy);
    EXPECT_EQ(schema::assign(message, std::move(proxy)), "") << key;
  } else {
    schema::for_each_row<T>([&](const auto& row, std::size_t) {
      // The backend picks which sub-message travels; the two request bases
      // of the test below cover one each.
      if (!row.when(message) || row.key == "backend") return;
      auto& value = std::invoke(row.get, message);
      using V = std::remove_cvref_t<decltype(value)>;
      if constexpr (schema::Message<V>) {
        poke_row(value, index, target, key);
      } else if constexpr (schema::kIsOptional<V>) {
        if (value.has_value()) {
          poke_row(*value, index, target, key);
        } else if (index++ == target) {
          value.emplace();
          key = row.key;
        }
      } else if (index++ == target) {
        key = row.key;
        if constexpr (schema::kNamed<decltype(row)>)
          value = static_cast<V>((static_cast<std::size_t>(value) + 1) %
                                 row.names.size());
        else if constexpr (std::is_same_v<V, bool>)
          value = !value;
        else if constexpr (std::is_same_v<V, std::string>)
          value += "+";
        else if constexpr (std::is_same_v<V, std::vector<double>>)
          for (double& v : value) v += 1.0;
        else
          value = static_cast<V>(value + 3);
      }
    });
  }
}

/// Every row under `base` changes both encodings when poked, and the poked
/// message round-trips on both lanes: no row is written but never read, or
/// read but never written.
template <typename M>
void expect_every_row_travels(const M& base, const std::string& what) {
  const std::vector<std::uint8_t> base_bytes = binary_of(base);
  const std::string base_json = json_of(base);
  std::size_t rows = 0;
  for (std::size_t target = 0;; ++target) {
    M poked = base;
    std::size_t index = 0;
    std::string key;
    poke_row(poked, index, target, key);
    if (target >= index) break;
    rows = index;
    SCOPED_TRACE(what + " row " + std::to_string(target) + " '" + key + "'");
    EXPECT_NE(binary_of(poked), base_bytes);
    EXPECT_NE(json_of(poked), base_json);
    if constexpr (std::is_same_v<M, Status>) {
      Status from_binary, from_text;
      ASSERT_TRUE(decode_status(binary_of(poked), from_binary).ok());
      ASSERT_TRUE(status_from_json(json_of(poked), from_text).ok());
      EXPECT_EQ(from_binary, poked);
      EXPECT_EQ(from_text, poked);
    } else {
      Result<M> from_binary = decode_binary<M>(binary_of(poked));
      ASSERT_TRUE(from_binary.ok()) << from_binary.status().message();
      EXPECT_TRUE(from_binary.value() == poked);
      Result<M> from_text = decode_text<M>(json_of(poked));
      ASSERT_TRUE(from_text.ok()) << from_text.status().message();
      EXPECT_TRUE(from_text.value() == poked);
    }
  }
  EXPECT_GT(rows, 0u) << what;
}

TEST(WireSchemaTest, EveryRowChangesBothEncodingsAndRoundTrips) {
  expect_every_row_travels(golden_device_request(), "device request");
  expect_every_row_travels(sample_playback_request(), "playback request");
  expect_every_row_travels(golden_report(ErrorCode::kPairFailed), "report");
  expect_every_row_travels(golden_progress(), "progress");
  expect_every_row_travels(golden_fault_stats(), "fault stats");
  expect_every_row_travels(
      Status::failure(ErrorCode::kDeviceDrifted, "raster", "drift"),
      "status");
}

}  // namespace
}  // namespace qvg::wire
