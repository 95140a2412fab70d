// Wire serialization (PR 8): exact round trips for every message type over
// both lanes (binary wire/codec, JSON), decoder robustness against
// truncation / bit-flips / version skew (typed kParseError, never UB — CI
// runs this file under ASan+UBSan), and materialize() turning untrusted
// WireRequests into engine-runnable requests with typed validation.
#include "wire/json.hpp"
#include "wire/messages.hpp"

#include "common/random.hpp"
#include "test_support.hpp"

#include <gtest/gtest.h>

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
  // Cycle the frontier strategy so round trips cover every enum value.
  r.device.frontier = variant % 3;
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

TEST(WireMaterializeTest, FrontierStrategyRoundTripsAndValidates) {
  // Every strategy value survives both lanes and maps onto the engine
  // request's enum; anything past the enum range is rejected typed.
  for (std::uint64_t value : {0ull, 1ull, 2ull}) {
    WireRequest wire = sample_device_request(0);
    wire.device.frontier = value;
    const std::vector<std::uint8_t> bytes = encode(wire);
    Result<WireRequest> binary = decode_request(bytes);
    ASSERT_TRUE(binary.ok());
    EXPECT_EQ(binary.value().device.frontier, value);
    Result<WireRequest> json = request_from_json(to_json(wire));
    ASSERT_TRUE(json.ok()) << json.status().message();
    EXPECT_EQ(json.value().device.frontier, value);

    Result<MaterializedRequest> m = materialize(wire);
    ASSERT_TRUE(m.ok()) << m.status().message();
    EXPECT_EQ(m.value().request.device.frontier,
              static_cast<FrontierStrategy>(value));
  }

  WireRequest bad = sample_device_request(0);
  bad.device.frontier = 3;
  EXPECT_EQ(materialize(bad).status().code(), ErrorCode::kInvalidRequest);
}

TEST(WireJsonTest, FrontierStringIsOptionalAndValidated) {
  // Absent "frontier" key = the anneal default (old clients keep working);
  // an unknown string is a typed parse error, not a silent default.
  const WireRequest wire = sample_device_request(0);
  std::string json = to_json(wire);
  const auto pos = json.find(",\"frontier\":\"anneal\"");
  ASSERT_NE(pos, std::string::npos) << json;
  std::string without = json;
  without.erase(pos, std::string(",\"frontier\":\"anneal\"").size());
  Result<WireRequest> decoded = request_from_json(without);
  ASSERT_TRUE(decoded.ok()) << decoded.status().message();
  EXPECT_EQ(decoded.value().device.frontier, 0u);

  std::string bogus = json;
  bogus.replace(bogus.find("\"anneal\""), 8, "\"warp\"");
  EXPECT_FALSE(request_from_json(bogus).ok());
}

}  // namespace
}  // namespace qvg::wire
