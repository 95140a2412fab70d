#include "harness.hpp"

#include "common/simd.hpp"
#include "common/thread_pool.hpp"
#include "device/noise.hpp"
#include "extraction/postprocess.hpp"
#include "probe/driver/instrument_driver.hpp"
#include "probe/probe_cache.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>

namespace perfbench {

using namespace qvg;

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           1e-6 * static_cast<double>(tv.tv_usec);
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

// --- Window -----------------------------------------------------------------

void Window::record(std::uint32_t input_index, Clock::time_point start,
                    Clock::time_point end) {
  start_s.push_back(seconds_between(origin, start));
  end_s.push_back(seconds_between(origin, end));
  input.push_back(input_index);
}

void Window::merge(const Window& other) {
  start_s.insert(start_s.end(), other.start_s.begin(), other.start_s.end());
  end_s.insert(end_s.end(), other.end_s.begin(), other.end_s.end());
  input.insert(input.end(), other.input.begin(), other.input.end());
  attempted += other.attempted;
  failed += other.failed;
}

std::vector<double> Window::latencies_ms() const {
  std::vector<double> out(start_s.size());
  for (std::size_t i = 0; i < out.size(); ++i)
    out[i] = 1e3 * (end_s[i] - start_s[i]);
  return out;
}

std::vector<std::vector<double>> Window::latencies_ms_by_input(
    std::size_t inputs) const {
  std::vector<std::vector<double>> out(inputs);
  for (std::size_t k = 0; k < input.size(); ++k)
    out[input[k]].push_back(1e3 * (end_s[k] - start_s[k]));
  return out;
}

double engine_overhead_ms(const std::vector<std::vector<double>>& engine_ms,
                          const std::vector<std::vector<double>>& layers_ms) {
  double sum = 0.0;
  for (std::size_t i = 0; i < engine_ms.size(); ++i)
    sum += percentile(engine_ms[i], 0.5) - percentile(layers_ms[i], 0.5);
  return engine_ms.empty() ? 0.0 : sum / static_cast<double>(engine_ms.size());
}

double Window::jobs_per_s() const {
  return active_seconds > 0.0
             ? static_cast<double>(start_s.size()) / active_seconds
             : 0.0;
}

// --- Metrics ----------------------------------------------------------------

void Metrics::add(std::string name, double value, std::string unit) {
  entries_.push_back({std::move(name), value, std::move(unit)});
}

std::string Metrics::table() const {
  std::string out;
  char line[160];
  for (const Entry& e : entries_) {
    std::snprintf(line, sizeof line, "  %-44s %16.6g %s\n", e.name.c_str(),
                  e.value, e.unit.c_str());
    out += line;
  }
  return out;
}

std::string Metrics::json() const {
  std::string out = "{";
  char value[64];
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    std::snprintf(value, sizeof value, "%.17g", entries_[i].value);
    out += (i == 0 ? "\"" : ", \"") + entries_[i].name + "\": {\"value\": " +
           value + ", \"unit\": \"" + entries_[i].unit + "\"}";
  }
  return out + "}";
}

Metrics end_to_end_metrics(const std::vector<double>& setup_s,
                           const Window& window, const WorkloadCost& cost) {
  const std::vector<double> latency = window.latencies_ms();
  const double jobs = static_cast<double>(std::max<std::size_t>(latency.size(), 1));
  Metrics m;
  m.add("setup_s", percentile(setup_s, 0.5), "s");
  m.add("jobs_per_s", window.jobs_per_s(), "1/s");
  m.add("latency_ms_p50", percentile(latency, 0.5), "ms");
  m.add("latency_ms_p90", percentile(latency, 0.9), "ms");
  m.add("cpu_s_per_job", window.cpu_seconds / jobs, "s");
  m.add("peak_rss_mb", peak_rss_mb(), "MB");
  m.add("ok_fraction",
        window.attempted > 0
            ? 1.0 - static_cast<double>(window.failed) /
                        static_cast<double>(window.attempted)
            : 0.0,
        "fraction");
  m.add("sim_s_per_job", cost.sim_s_per_job, "sim_s");
  m.add("probes_per_job", cost.probes_per_job, "count");
  m.add("success_fraction", cost.success_fraction, "fraction");
  m.add("speedup_vs_baseline", cost.speedup_vs_baseline, "x");
  return m;
}

namespace {

/// Every per-layer metric of BENCHMARK.json, in print order, with its unit.
constexpr std::pair<const char*, const char*> kPerLayer[] = {
    {"dataset.build_suite_s", "s"},
    {"device.build_ms", "ms"},
    {"device.simulate_ms_per_job", "ms"},
    {"device.source_calls_per_job", "count"},
    {"probe.playback_ms_per_job", "ms"},
    {"probe.cache_hit_fraction", "fraction"},
    {"probe.raster_ms", "ms"},
    {"probe.retries_per_job", "count"},
    {"probe.transients_per_job", "count"},
    {"probe.driver_batches_per_job", "count"},
    {"probe.driver_max_inflight", "count"},
    {"extraction.anchors_ms", "ms"},
    {"extraction.sweeps_ms", "ms"},
    {"extraction.filter_ms", "ms"},
    {"extraction.fit_ms", "ms"},
    {"extraction.anchor_probes", "count"},
    {"extraction.sweep_probes", "count"},
    {"extraction.filter_keep_fraction", "fraction"},
    {"extraction.baseline_analyze_ms", "ms"},
    {"extraction.pair_ms_p50", "ms"},
    {"extraction.pair_ms_max", "ms"},
    {"extraction.compose_ms", "ms"},
    {"imgproc.canny_ms", "ms"},
    {"imgproc.hough_ms", "ms"},
    {"service.engine_ms", "ms"},
    {"service.engine_overhead_ms", "ms"},
    {"wire.binary.encode_request_us", "us"},
    {"wire.binary.decode_request_us", "us"},
    {"wire.binary.encode_report_us", "us"},
    {"wire.binary.decode_report_us", "us"},
    {"wire.binary.request_bytes", "bytes"},
    {"wire.binary.report_bytes", "bytes"},
    {"wire.json.encode_request_us", "us"},
    {"wire.json.decode_request_us", "us"},
    {"wire.json.encode_report_us", "us"},
    {"wire.json.decode_report_us", "us"},
    {"wire.json.request_bytes", "bytes"},
    {"wire.json.report_bytes", "bytes"},
    {"server.submit_ms", "ms"},
    {"server.wait_ms", "ms"},
    {"server.overhead_ms", "ms"},
    {"trace.accounted_fraction", "fraction"},
    {"trace.overhead_fraction", "fraction"},
};

}  // namespace

Metrics per_layer_metrics(const LayerValues& values) {
  for (const auto& [name, value] : values) {
    const bool known = std::any_of(
        std::begin(kPerLayer), std::end(kPerLayer),
        [&](const auto& entry) { return name == entry.first; });
    if (!known) throw std::logic_error("unknown per-layer metric " + name);
  }
  Metrics m;
  for (const auto& [name, unit] : kPerLayer) {
    const auto it = values.find(name);
    m.add(name, it == values.end() ? 0.0 : it->second, unit);
  }
  return m;
}

FastTrace& FastTrace::operator+=(const FastTrace& o) {
  anchors_s += o.anchors_s;
  sweeps_s += o.sweeps_s;
  filter_s += o.filter_s;
  fit_s += o.fit_s;
  anchor_probes += o.anchor_probes;
  sweep_probes += o.sweep_probes;
  raw_points += o.raw_points;
  kept_points += o.kept_points;
  cache_requests += o.cache_requests;
  cache_hits += o.cache_hits;
  return *this;
}

void add_fast_trace(LayerValues& values, const FastTrace& total, double jobs) {
  const double per_job_ms = 1e3 / jobs;
  values["extraction.anchors_ms"] = total.anchors_s * per_job_ms;
  values["extraction.sweeps_ms"] = total.sweeps_s * per_job_ms;
  values["extraction.filter_ms"] = total.filter_s * per_job_ms;
  values["extraction.fit_ms"] = total.fit_s * per_job_ms;
  values["extraction.anchor_probes"] =
      static_cast<double>(total.anchor_probes) / jobs;
  values["extraction.sweep_probes"] =
      static_cast<double>(total.sweep_probes) / jobs;
  values["extraction.filter_keep_fraction"] =
      total.raw_points > 0 ? static_cast<double>(total.kept_points) /
                                 static_cast<double>(total.raw_points)
                           : 0.0;
  values["probe.cache_hit_fraction"] =
      total.cache_requests > 0 ? static_cast<double>(total.cache_hits) /
                                     static_cast<double>(total.cache_requests)
                               : 0.0;
}

// --- host calibration -------------------------------------------------------

namespace {

std::atomic<std::uint64_t> g_spin_sink{0};

/// A dependent integer chain the optimizer cannot shorten.
void spin(std::uint64_t iterations) {
  std::uint64_t x = iterations | 1;
  for (std::uint64_t i = 0; i < iterations; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  g_spin_sink.fetch_add(x, std::memory_order_relaxed);
}

double time_spin(unsigned threads, std::uint64_t iterations) {
  const Clock::time_point t0 = Clock::now();
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t) pool.emplace_back(spin, iterations);
  for (std::thread& t : pool) t.join();
  return seconds_between(t0, Clock::now());
}

std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    const auto colon = line.find(':');
    if (line.compare(0, 10, "model name") == 0 && colon != std::string::npos) {
      const auto start = line.find_first_not_of(" \t", colon + 1);
      if (start != std::string::npos) return line.substr(start);
    }
  }
  return "unknown";
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

}  // namespace

Host calibrate_host() {
  Host host;
  host.nproc = std::max(1u, std::thread::hardware_concurrency());
  // Size one spin to ~40 ms, then compare nproc concurrent spins with one:
  // the speedup is the parallel capacity the host actually grants.
  constexpr std::uint64_t kProbe = 1u << 22;
  const double probe_s = std::max(time_spin(1, kProbe), 1e-4);
  const auto iterations =
      static_cast<std::uint64_t>(static_cast<double>(kProbe) * 0.04 / probe_s);
  const double one = time_spin(1, iterations);
  const double all = time_spin(host.nproc, iterations);
  host.parallel_capacity = host.nproc * one / std::max(all, 1e-9);
  host.pool_threads = ThreadPool::global().size();
  const char* env = std::getenv("QVG_THREADS");
  host.qvg_threads = env != nullptr ? env : "";
  host.cpu = cpu_model();
  host.compiler = __VERSION__;
#ifdef PERFBENCH_BUILD_FLAGS
  host.build_flags = PERFBENCH_BUILD_FLAGS;
#endif
  host.simd = std::string(simd::kNative ? "native" : "scalar-fallback") +
              " double_lanes=" + std::to_string(simd::kDoubleLanes) +
              " float_lanes=" + std::to_string(simd::kFloatLanes);
  return host;
}

std::string host_json(const Host& host) {
  char capacity[32];
  std::snprintf(capacity, sizeof capacity, "%.3f", host.parallel_capacity);
  return std::string("{\"nproc\": ") + std::to_string(host.nproc) +
         ", \"parallel_capacity\": " + capacity +
         ", \"pool_threads\": " + std::to_string(host.pool_threads) +
         ", \"QVG_THREADS\": " + json_string(host.qvg_threads) +
         ", \"cpu\": " + json_string(host.cpu) +
         ", \"compiler\": " + json_string(host.compiler) +
         ", \"build_flags\": " + json_string(host.build_flags) +
         ", \"simd\": " + json_string(host.simd) + "}";
}

void write_raw(const RunConfig& config, const Host& host,
               const Outcome& outcome) {
  if (config.raw_dir.empty()) return;
  const std::string path = config.raw_dir + "/" + config.workload + "-seed" +
                           std::to_string(config.seed) + "-trace" +
                           (config.trace ? "1" : "0") + ".json";
  std::ofstream out(path);
  if (!out) return;
  auto vec = [&](const auto& values) {
    out << '[';
    for (std::size_t i = 0; i < values.size(); ++i)
      out << (i ? "," : "") << values[i];
    out << ']';
  };
  out.precision(9);
  out << "{\"workload\": " << json_string(config.workload)
      << ", \"seed\": " << config.seed << ", \"seconds\": " << config.seconds
      << ", \"trace\": " << (config.trace ? 1 : 0)
      << ", \"host\": " << host_json(host) << ", \"phases\": {";
  for (std::size_t p = 0; p < outcome.phases.size(); ++p) {
    const Window& w = outcome.phases[p].second;
    out << (p ? ", " : "") << json_string(outcome.phases[p].first)
        << ": {\"active_seconds\": " << w.active_seconds
        << ", \"cpu_seconds\": " << w.cpu_seconds
        << ", \"attempted\": " << w.attempted << ", \"failed\": " << w.failed
        << ", \"start_s\": ";
    vec(w.start_s);
    out << ", \"end_s\": ";
    vec(w.end_s);
    out << ", \"input\": ";
    vec(w.input);
    out << '}';
  }
  out << "}}\n";
}

// --- tracing ----------------------------------------------------------------

double TimedSource::get_current(double v1, double v2) {
  const Clock::time_point t0 = Clock::now();
  const double value = inner_.get_current(v1, v2);
  seconds_ += seconds_between(t0, Clock::now());
  ++calls_;
  return value;
}

void TimedSource::get_currents(std::span<const Point2> points,
                               std::span<double> out) {
  const Clock::time_point t0 = Clock::now();
  inner_.get_currents(points, out);
  seconds_ += seconds_between(t0, Clock::now());
  ++calls_;
}

Status TimedSource::try_get_currents(std::span<const Point2> points,
                                     std::span<double> out) {
  const Clock::time_point t0 = Clock::now();
  Status status = inner_.try_get_currents(points, out);
  seconds_ += seconds_between(t0, Clock::now());
  ++calls_;
  return status;
}

FastOutcome traced_fast_extraction(CurrentSource& source,
                                   const VoltageAxis& x_axis,
                                   const VoltageAxis& y_axis,
                                   const FastExtractorOptions& opt,
                                   const AcquisitionContext& context,
                                   FastTrace& trace) {
  FastOutcome out;
  const double sim_start = source.clock().elapsed_seconds();
  ProbeCache cache(source, std::min(x_axis.step(), y_axis.step()));
  cache.reserve((x_axis.count() + y_axis.count()) * 8);
  std::optional<InstrumentDriver> driver;
  std::optional<SyncSourceAdapter> adapter;
  AsyncCurrentSource* lane = nullptr;
  if (context.transport.enabled())
    lane = &driver.emplace(cache, context.transport, context.faults);
  else
    lane = &adapter.emplace(cache);

  auto finish = [&](Status status) {
    out.status = std::move(status);
    out.stats.unique_probes = cache.unique_probe_count();
    out.stats.total_requests = cache.probe_count();
    out.stats.simulated_seconds = source.clock().elapsed_seconds() - sim_start;
    out.probe_log_size = cache.probe_log().size();
    trace.cache_requests += cache.probe_count();
    trace.cache_hits += cache.cache_hits();
    return out;
  };
  // Times one probing stage and counts the unique probes it issued (every
  // stage drains the lane before it returns).
  auto probing_stage = [&](auto&& stage, double& wall, long& probes) {
    const long unique0 = cache.unique_probe_count();
    const Clock::time_point t0 = Clock::now();
    auto result = stage();
    wall += seconds_between(t0, Clock::now());
    probes += cache.unique_probe_count() - unique0;
    return result;
  };

  auto anchors = probing_stage(
      [&] {
        return find_anchor_points(*lane, x_axis, y_axis, opt.anchors, context);
      },
      trace.anchors_s, trace.anchor_probes);
  if (!anchors) return finish(anchors.status());
  const AnchorResult a = std::move(anchors).value();

  if (Status s = context.check("sweeps", cache.probe_count()); !s.ok())
    return finish(std::move(s));
  SweepOptions sweep_opt = opt.sweep;
  sweep_opt.run_row_sweep = opt.enable_row_sweep;
  sweep_opt.run_col_sweep = opt.enable_col_sweep;
  const SweepResult sweeps = probing_stage(
      [&] {
        return run_sweeps(*lane, x_axis, y_axis, a.anchor_a, a.anchor_b,
                          sweep_opt, context);
      },
      trace.sweeps_s, trace.sweep_probes);
  if (!sweeps.status.ok()) return finish(sweeps.status);
  std::vector<Pixel> raw;
  if (opt.enable_row_sweep)
    for (const auto& p : sweeps.row_points) raw.push_back(p.pixel);
  if (opt.enable_col_sweep)
    for (const auto& p : sweeps.col_points) raw.push_back(p.pixel);
  if (raw.size() < 3)
    return finish(Status::failure(ErrorCode::kInsufficientPoints, "sweeps",
                                  "located fewer than 3 transition points"));

  if (Status s = context.check("fit"); !s.ok()) return finish(std::move(s));
  Clock::time_point t0 = Clock::now();
  const std::vector<Pixel> filtered =
      opt.enable_postprocess ? postprocess_transition_points(raw) : raw;
  trace.filter_s += seconds_between(t0, Clock::now());
  trace.raw_points += static_cast<long>(raw.size());
  trace.kept_points += static_cast<long>(filtered.size());

  t0 = Clock::now();
  auto fit = fit_piecewise_linear(filtered, a.anchor_a, a.anchor_b, opt.fit);
  std::optional<Status> failure;
  if (!fit) {
    failure = Status::failure(ErrorCode::kFitFailed, "fit", fit.reason());
  } else {
    const double unit_ratio = y_axis.step() / x_axis.step();
    out.slope_steep = fit.value().slope_steep * unit_ratio;
    out.slope_shallow = fit.value().slope_shallow * unit_ratio;
    auto pair = virtualization_from_slopes(out.slope_steep, out.slope_shallow);
    if (!pair)
      failure = Status::failure(ErrorCode::kDegenerateVirtualization,
                                "virtualization", pair.reason());
    else
      out.gates = *pair;
  }
  trace.fit_s += seconds_between(t0, Clock::now());
  return finish(failure.value_or(Status{}));
}

bool same_fast_outcome(const FastOutcome& traced, const ExtractionReport& r) {
  return traced.status == r.status && traced.gates == r.virtual_gates &&
         traced.slope_steep == r.slope_steep &&
         traced.slope_shallow == r.slope_shallow &&
         traced.stats.unique_probes == r.stats.unique_probes &&
         traced.stats.total_requests == r.stats.total_requests &&
         traced.stats.simulated_seconds == r.stats.simulated_seconds &&
         traced.probe_log_size == r.fast.probe_log.size();
}

AcquisitionContext engine_context(const ExtractionRequest& request) {
  AcquisitionContext context;
  context.max_probes = request.budget.max_probes;
  context.retry = request.retry;
  context.transport = request.transport;
  if (request.faults.active() && context.transport.io_depth > 1)
    context.transport.io_depth = 1;
  if (request.faults.active() || context.transport.enabled())
    context.faults = FaultRecorder::make();
  return context;
}

DeviceSimulator backend_simulator(const DeviceBackend& backend) {
  DeviceSimulator sim =
      make_pair_simulator(*backend.device, backend.pair_index,
                          backend.noise_seed, backend.dwell_seconds);
  ChargeSolverOptions solver = sim.solver_options();
  solver.frontier.strategy = backend.frontier;
  sim.set_solver_options(solver);
  if (backend.white_noise_sigma > 0.0)
    sim.add_noise(std::make_unique<WhiteNoise>(backend.white_noise_sigma));
  if (backend.pink_noise_sigma > 0.0)
    sim.add_noise(std::make_unique<PinkNoise>(backend.pink_noise_sigma, 0.2,
                                              30.0));
  if (backend.telegraph_amplitude > 0.0)
    sim.add_noise(std::make_unique<TelegraphNoise>(
        backend.telegraph_amplitude, backend.telegraph_rate_hz));
  return sim;
}

}  // namespace perfbench
