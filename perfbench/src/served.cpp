// served_mixed_64px: two closed-loop clients against an in-process
// ExtractionServer on loopback. Each job is POST /v1/jobs then
// GET /v1/jobs/N?wait=1 for a 64 px fast extraction on a seeded, jittered
// double dot with a live simulator. The request cycle alternates the binary
// and JSON lanes; in every block of 8, each lane carries one job with 5%
// transient faults (retried) and one with an io_depth 4 sim-clock
// transport. The seed drives device jitter, noise and fault seeds, and the
// order of the acquisition mixes within each block.
//
// The server keeps every job for its lifetime, so the run is split into
// epochs of kEpochJobs jobs, each on a freshly started server: memory stays
// bounded by the epoch, and every server start + warm-up is one set-up
// sample.
#include "workloads.hpp"

#include "common/random.hpp"
#include "probe/fault_injection.hpp"
#include "server/extraction_server.hpp"
#include "server/http_client.hpp"
#include "wire/json.hpp"
#include "wire/messages.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>

namespace perfbench {

using namespace qvg;

namespace {

constexpr std::size_t kCycle = 128;  // distinct requests
constexpr long kEpochJobs = 1024;
constexpr int kClients = 2;
constexpr std::size_t kWarmupJobs = 8;
constexpr int kReplayPasses = 4;
constexpr int kWirePasses = 8;
constexpr double kTransientRate = 0.05;
constexpr double kTransportLatencyUs = 200.0;
constexpr long kIoDepth = 4;

enum class Acquisition { kPlain, kFaults, kTransport };

/// Client-side spans of the served jobs, summed.
struct ClientSpans {
  double encode_s = 0.0;
  double submit_s = 0.0;  // POST round trip
  double wait_s = 0.0;    // GET ?wait=1 round trip
  double decode_s = 0.0;
  double engine_s = 0.0;  // report wall_seconds
  double latency_s = 0.0;
  long jobs = 0;
  long max_inflight = 0;  // driver ring high-water mark over the jobs

  ClientSpans& operator+=(const ClientSpans& o) {
    encode_s += o.encode_s;
    submit_s += o.submit_s;
    wait_s += o.wait_s;
    decode_s += o.decode_s;
    engine_s += o.engine_s;
    latency_s += o.latency_s;
    jobs += o.jobs;
    max_inflight = std::max(max_inflight, o.max_inflight);
    return *this;
  }
};

/// A served report equals the local reference on every deterministic
/// field. Excluded: the server-assigned label, wall and compute seconds,
/// and driver_max_inflight — the ring's high-water mark depends on how the
/// driver thread is scheduled against the submitting one (1 or 2 at
/// io_depth 4 on identical requests).
bool same_served(wire::WireReport served, wire::WireReport reference) {
  for (wire::WireReport* r : {&served, &reference}) {
    r->label.clear();
    r->wall_seconds = 0.0;
    r->stats.compute_seconds = 0.0;
    r->fault_stats.driver_max_inflight = 0;
  }
  return served == reference;
}

std::span<const std::uint8_t> as_bytes(const std::string& body) {
  return {reinterpret_cast<const std::uint8_t*>(body.data()), body.size()};
}

struct Served {
  bool ok = false;
  Clock::time_point start;
  Clock::time_point end;
};

/// One served job: encode, POST, GET ?wait=1, decode, compare. Any HTTP,
/// transport or codec error, or a report differing from the reference,
/// returns ok = false.
Served serve_one(std::uint16_t port, const wire::WireRequest& request,
                 bool json, const wire::WireReport& expected,
                 ClientSpans* spans) {
  Served served;
  served.start = Clock::now();
  std::string body;
  if (json) {
    body = wire::to_json(request);
  } else {
    const std::vector<std::uint8_t> bytes = wire::encode(request);
    body.assign(reinterpret_cast<const char*>(bytes.data()), bytes.size());
  }
  const Clock::time_point encoded = Clock::now();
  Result<server::ClientResponse> posted = server::http_call(
      port, "POST", "/v1/jobs", body,
      json ? "application/json" : "application/octet-stream");
  if (!posted.ok() || posted.value().status != 200) return served;
  Result<wire::JsonValue> doc = wire::parse_json(posted.value().body);
  if (!doc.ok()) return served;
  const wire::JsonValue* job = doc.value().find("job");
  if (job == nullptr || !job->exact_u64()) return served;
  const Clock::time_point submitted = Clock::now();
  Result<server::ClientResponse> got = server::http_call(
      port, "GET",
      "/v1/jobs/" + std::to_string(job->as_u64()) + "?wait=1" +
          (json ? "&format=json" : ""));
  if (!got.ok() || got.value().status != 200) return served;
  const Clock::time_point waited = Clock::now();
  Result<wire::WireReport> report =
      json ? wire::report_from_json(got.value().body)
           : wire::decode_report(as_bytes(got.value().body));
  served.end = Clock::now();
  if (!report.ok()) return served;
  if (spans != nullptr) {
    spans->encode_s += seconds_between(served.start, encoded);
    spans->submit_s += seconds_between(encoded, submitted);
    spans->wait_s += seconds_between(submitted, waited);
    spans->decode_s += seconds_between(waited, served.end);
    spans->engine_s += report.value().wall_seconds;
    spans->latency_s += seconds_between(served.start, served.end);
    ++spans->jobs;
    spans->max_inflight = std::max(
        spans->max_inflight, report.value().fault_stats.driver_max_inflight);
  }
  served.ok = same_served(report.value(), expected);
  return served;
}

template <typename Fn>
double time_us(Fn&& fn) {
  const Clock::time_point t0 = Clock::now();
  fn();
  return 1e6 * seconds_between(t0, Clock::now());
}

}  // namespace

Outcome run_served_mixed_64px(const RunConfig& config) {
  Outcome outcome;
  const ExtractionEngine engine;

  // The request cycle. Even slots ride the binary lane, odd slots JSON; per
  // block of 8, each lane's four slots get a seeded order of
  // {plain, plain, faults, transport}.
  Rng mix_rng(derive_seed(config.seed, 0));
  std::vector<wire::WireRequest> requests(kCycle);
  std::vector<bool> json_lane(kCycle);
  std::vector<Acquisition> acquisition(kCycle);
  for (std::size_t block = 0; block < kCycle; block += 8) {
    for (std::size_t lane = 0; lane < 2; ++lane) {
      Acquisition mix[] = {Acquisition::kPlain, Acquisition::kPlain,
                           Acquisition::kFaults, Acquisition::kTransport};
      std::shuffle(std::begin(mix), std::end(mix), mix_rng);
      for (std::size_t k = 0; k < 4; ++k) {
        const std::size_t i = block + 2 * k + lane;
        json_lane[i] = lane == 1;
        acquisition[i] = mix[k];
      }
    }
  }
  for (std::size_t i = 0; i < kCycle; ++i) {
    wire::WireRequest& r = requests[i];
    r.method = ExtractionMethod::kFast;
    r.backend = wire::WireBackendKind::kDevice;
    r.device.params.n_dots = 2;
    r.device.params.cross_ratio = 0.25;
    r.device.params.jitter = 0.05;
    r.device.has_jitter = true;
    r.device.jitter_seed = derive_seed(config.seed, 1000 + i);
    r.device.noise_seed = derive_seed(config.seed, 2000 + i) >> 16;
    r.device.pixels_per_axis = 64;
    r.device.white_noise_sigma = 0.02;
    if (acquisition[i] == Acquisition::kFaults) {
      r.faults.transient_rate = kTransientRate;
      r.faults.seed = derive_seed(config.seed, 3000 + i);
    } else if (acquisition[i] == Acquisition::kTransport) {
      r.transport.latency_us = kTransportLatencyUs;
      r.transport.io_depth = kIoDepth;
    }
  }

  // Local reference: every request materialized and run straight through
  // the engine, plus its full-raster baseline for the speedup.
  std::vector<wire::MaterializedRequest> local;
  std::vector<double> materialize_ms;
  std::vector<ExtractionRequest> fast_requests, base_requests;
  for (const wire::WireRequest& r : requests) {
    const Clock::time_point t0 = Clock::now();
    Result<wire::MaterializedRequest> m = wire::materialize(r);
    materialize_ms.push_back(1e3 * seconds_between(t0, Clock::now()));
    if (!m.ok()) throw std::runtime_error("materialize: " + m.status().message());
    local.push_back(std::move(m).value());
    fast_requests.push_back(local.back().request);
    base_requests.push_back(local.back().request);
    base_requests.back().method = ExtractionMethod::kHoughBaseline;
  }
  const std::vector<ExtractionReport> reference = engine.run_batch(fast_requests);
  const std::vector<ExtractionReport> baseline = engine.run_batch(base_requests);
  std::vector<wire::WireReport> expected;
  WorkloadCost cost;
  std::vector<double> speedups;
  for (std::size_t i = 0; i < kCycle; ++i) {
    const ExtractionReport& r = reference[i];
    expected.push_back(wire::WireReport::from(r));
    cost.sim_s_per_job += r.stats.simulated_seconds / kCycle;
    cost.probes_per_job += static_cast<double>(r.stats.unique_probes) / kCycle;
    cost.success_fraction += (r.verdict.success ? 1.0 : 0.0) / kCycle;
    if (r.verdict.success && baseline[i].verdict.success)
      speedups.push_back(baseline[i].stats.simulated_seconds /
                         r.stats.simulated_seconds);
  }
  cost.speedup_vs_baseline = percentile(speedups, 0.5);
  char note[200];
  std::snprintf(note, sizeof note,
                "served cycle: %zu requests, fast verdicts %.0f/%zu, "
                "speedup over %zu jobs where both methods succeed",
                kCycle, cost.success_fraction * kCycle, kCycle,
                speedups.size());
  outcome.notes.push_back(note);
  outcome.correct = cost.success_fraction > 0.0 && !speedups.empty();

  // One epoch: start a server and warm it up (the set-up sample), then run
  // the clients until kEpochJobs jobs or `time_left` seconds.
  std::vector<double> setup_s;
  long cycle_position = 0;
  auto run_epoch = [&](Window& window, double time_left,
                       ClientSpans* spans) {
    const Clock::time_point s0 = Clock::now();
    server::ExtractionServer srv;
    if (Status started = srv.start(); !started.ok())
      throw std::runtime_error("server start: " + started.message());
    for (std::size_t i = 0; i < kWarmupJobs; ++i)
      if (!serve_one(srv.port(), requests[i], json_lane[i], expected[i],
                     nullptr)
               .ok)
        throw std::runtime_error("server warm-up job failed");
    setup_s.push_back(seconds_between(s0, Clock::now()));

    std::atomic<long> next{0};
    std::vector<Window> client_windows(kClients);
    std::vector<ClientSpans> client_spans(kClients);
    const double cpu0 = process_cpu_seconds();
    const Clock::time_point e0 = Clock::now();
    const Clock::time_point deadline =
        e0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(time_left));
    auto client = [&](int c) {
      Window& w = client_windows[c];
      w.origin = window.origin;
      for (;;) {
        const long k = next.fetch_add(1);
        if (k >= kEpochJobs || Clock::now() >= deadline) break;
        const auto i = static_cast<std::uint32_t>((cycle_position + k) % kCycle);
        const Served served =
            serve_one(srv.port(), requests[i], json_lane[i], expected[i],
                      spans != nullptr ? &client_spans[c] : nullptr);
        ++w.attempted;
        if (!served.ok) {
          ++w.failed;
          continue;
        }
        w.record(i, served.start, served.end);
      }
    };
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) clients.emplace_back(client, c);
    for (std::thread& t : clients) t.join();
    window.active_seconds += seconds_between(e0, Clock::now());
    window.cpu_seconds += process_cpu_seconds() - cpu0;
    for (int c = 0; c < kClients; ++c) {
      window.merge(client_windows[c]);
      cycle_position += client_windows[c].attempted;
      if (spans != nullptr) *spans += client_spans[c];
    }
    srv.stop();
  };

  // A traced run alternates untraced and traced epochs, so both phases see
  // the same host.
  Window untraced;
  Window traced;
  traced.origin = untraced.origin;
  ClientSpans spans;
  while (untraced.active_seconds < config.seconds ||
         (config.trace && traced.active_seconds < config.seconds)) {
    if (untraced.active_seconds < config.seconds)
      run_epoch(untraced, config.seconds - untraced.active_seconds, nullptr);
    if (config.trace && traced.active_seconds < config.seconds)
      run_epoch(traced, config.seconds - traced.active_seconds, &spans);
  }
  outcome.attempted = untraced.attempted + traced.attempted;
  outcome.failed = untraced.failed + traced.failed;

  if (!config.trace) {
    outcome.metrics = end_to_end_metrics(setup_s, untraced, cost);
    outcome.phases.emplace_back("untraced", std::move(untraced));
    return outcome;
  }

  // The engine-internal split of the served jobs: a traced local replay of
  // the same materialized requests (timed simulator under the fault
  // injector, fast-extraction stage rebuild, the request's acquisition
  // lane), each checked against the reference, next to an untraced
  // engine.run of the same request.
  FastTrace fast_total;
  double device_s = 0.0;
  long source_calls = 0, replays = 0, replay_failed = 0;
  std::vector<std::vector<double>> engine_by_input(kCycle), stage_by_input(kCycle);
  for (int pass = 0; pass < kReplayPasses; ++pass) {
    for (std::size_t i = 0; i < kCycle; ++i) {
      const ExtractionRequest& request = local[i].request;
      const Clock::time_point t0 = Clock::now();
      (void)engine.run(request);
      const Clock::time_point t1 = Clock::now();
      DeviceSimulator sim = backend_simulator(request.device);
      const double build_s = seconds_between(t1, Clock::now());
      TimedSource timed(sim);
      std::optional<FaultInjectingCurrentSource> injected;
      CurrentSource* source = &timed;
      if (request.faults.active()) source = &injected.emplace(timed, request.faults);
      const VoltageAxis axis =
          scan_axis(*request.device.device, request.device.pixels_per_axis);
      FastTrace trace;
      const FastOutcome out =
          traced_fast_extraction(*source, axis, axis, request.fast,
                                 engine_context(request), trace);
      engine_by_input[i].push_back(1e3 * seconds_between(t0, t1));
      stage_by_input[i].push_back(1e3 * (build_s + trace.stage_sum()));
      device_s += build_s + timed.seconds();
      source_calls += timed.calls();
      fast_total += trace;
      ++replays;
      if (!same_fast_outcome(out, reference[i]) ||
          judge_extraction(out.status.ok(), out.gates, sim.truth(),
                           request.verdict) != reference[i].verdict)
        ++replay_failed;
    }
  }

  // Wire codec cost on the workload's own messages, both lanes.
  double us[8] = {};
  double bytes[4] = {};
  long codec_failed = 0;
  for (int pass = 0; pass < kWirePasses; ++pass) {
    for (std::size_t i = 0; i < kCycle; ++i) {
      std::vector<std::uint8_t> request_bin, report_bin;
      std::string request_json, report_json;
      us[0] += time_us([&] { request_bin = wire::encode(requests[i]); });
      us[1] += time_us([&] {
        const auto back = wire::decode_request(request_bin);
        codec_failed += back.ok() && back.value() == requests[i] ? 0 : 1;
      });
      us[2] += time_us([&] { report_bin = wire::encode(expected[i]); });
      us[3] += time_us([&] {
        const auto back = wire::decode_report(report_bin);
        codec_failed += back.ok() && back.value() == expected[i] ? 0 : 1;
      });
      us[4] += time_us([&] { request_json = wire::to_json(requests[i]); });
      us[5] += time_us([&] {
        const auto back = wire::request_from_json(request_json);
        codec_failed += back.ok() && back.value() == requests[i] ? 0 : 1;
      });
      us[6] += time_us([&] { report_json = wire::to_json(expected[i]); });
      us[7] += time_us([&] {
        const auto back = wire::report_from_json(report_json);
        codec_failed += back.ok() && back.value() == expected[i] ? 0 : 1;
      });
      if (pass == 0) {
        bytes[0] += static_cast<double>(request_bin.size()) / kCycle;
        bytes[1] += static_cast<double>(report_bin.size()) / kCycle;
        bytes[2] += static_cast<double>(request_json.size()) / kCycle;
        bytes[3] += static_cast<double>(report_json.size()) / kCycle;
      }
    }
  }
  const long codec_jobs = static_cast<long>(kWirePasses * kCycle);
  std::snprintf(note, sizeof note,
                "traced checks: %ld/%ld local replays and %ld/%ld codec round "
                "trips differ from the reference",
                replay_failed, replays, codec_failed, codec_jobs);
  outcome.notes.push_back(note);
  outcome.attempted += replays + codec_jobs;
  outcome.failed += replay_failed + codec_failed;

  LayerValues v;
  const auto jobs = static_cast<double>(std::max(spans.jobs, 1L));
  const auto replayed = static_cast<double>(std::max(replays, 1L));
  v["device.build_ms"] = mean(materialize_ms);
  v["device.simulate_ms_per_job"] = 1e3 * device_s / replayed;
  v["device.source_calls_per_job"] = static_cast<double>(source_calls) / replayed;
  add_fast_trace(v, fast_total, replayed);
  double retries = 0.0, transients = 0.0, batches = 0.0;
  for (const ExtractionReport& r : reference) {
    retries += static_cast<double>(r.fault_stats.retries) / kCycle;
    transients += static_cast<double>(r.fault_stats.transient_faults) / kCycle;
    batches += static_cast<double>(r.fault_stats.driver_batches) / kCycle;
  }
  v["probe.retries_per_job"] = retries;
  v["probe.transients_per_job"] = transients;
  v["probe.driver_batches_per_job"] = batches;
  v["probe.driver_max_inflight"] = static_cast<double>(spans.max_inflight);
  v["service.engine_ms"] = 1e3 * spans.engine_s / jobs;
  v["service.engine_overhead_ms"] =
      engine_overhead_ms(engine_by_input, stage_by_input);
  const char* lanes[] = {"wire.binary.", "wire.json."};
  const char* ops[] = {"encode_request_us", "decode_request_us",
                       "encode_report_us", "decode_report_us"};
  for (int lane = 0; lane < 2; ++lane) {
    for (int op = 0; op < 4; ++op)
      v[std::string(lanes[lane]) + ops[op]] =
          us[4 * lane + op] / static_cast<double>(codec_jobs);
    v[std::string(lanes[lane]) + "request_bytes"] = bytes[2 * lane];
    v[std::string(lanes[lane]) + "report_bytes"] = bytes[2 * lane + 1];
  }
  const double client_wire_s = spans.encode_s + spans.decode_s;
  v["server.submit_ms"] = 1e3 * spans.submit_s / jobs;
  v["server.wait_ms"] = 1e3 * spans.wait_s / jobs;
  v["server.overhead_ms"] =
      1e3 * (spans.latency_s - spans.engine_s - client_wire_s) / jobs;
  v["trace.accounted_fraction"] =
      spans.latency_s > 0.0
          ? (client_wire_s + spans.submit_s + spans.wait_s) / spans.latency_s
          : 0.0;
  v["trace.overhead_fraction"] =
      1.0 - traced.jobs_per_s() / untraced.jobs_per_s();
  outcome.metrics = per_layer_metrics(v);
  outcome.phases.emplace_back("untraced", std::move(untraced));
  outcome.phases.emplace_back("traced", std::move(traced));
  return outcome;
}

}  // namespace perfbench
