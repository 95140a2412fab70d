// csd_tool: command-line virtual gate extraction from a recorded charge
// stability diagram — local, served, or as a wire-API client.
//
//   csd_tool <diagram.csv> [--method fast|hough] [--dwell seconds]
//            [--timeout-ms T] [--max-probes N] [--cancel] [--progress]
//            [--fault-rate p] [--fault-seed S] [--max-retries R]
//            [--wall-backoff]
//   csd_tool --serve [--port P] [--max-pending N]
//   csd_tool <diagram.csv> --connect PORT [--tenant NAME] [--progress]
//            [--disconnect-after-first-event] [...request flags...]
//   csd_tool --dots N [--shards K] [--pixels P] [--method fast|hough]
//            [--connect PORT]
//   csd_tool --frontier-probe N
//
// --dots N runs the paper's n-dot array virtualization walk (n-1 pair
// extractions, composed into the full matrix) against a freshly built
// simulated linear array — no CSV needed. Pairs shard across the thread
// pool (--shards K; 0 = one shard per pair).
// With --connect the n-1 pair extractions are submitted to a running server
// as self-contained device wire requests and composed client-side — the
// wire lane serves 10-16 dot arrays end to end. The single-pair request
// flags (--timeout-ms, --max-probes, --cancel, --fault-rate, --fault-seed,
// --max-retries, --wall-backoff and the transport flags) and the client's
// --progress and --disconnect-after-first-event do not reach the array
// walk, so --dots rejects them as a usage error.
// --frontier-probe N solves one ground state on an N-dot device with every
// plunger at the window centre, where every dot is active, through the
// production GroundStateSolver, and prints the occupation, the energy, the
// search nodes and whether the node cap stopped the search; the output is a
// pure function of N, which the CI smoke pins by diffing two runs.
//
// Reads a CSD saved with qvg's CSV format (see dataset/csd_io.hpp), replays
// it through the paper's simulated getCurrent (dwell-time accounting
// included), runs the chosen extraction method as an async job, and prints
// the virtualization matrix plus probe statistics. When the file carries
// ground truth (simulated diagrams do), the verdict is printed too.
//
// --serve starts the embedded wire-API server (PR 8) on 127.0.0.1 and
// blocks until POST /v1/shutdown; the bound port is printed on stdout so
// scripts can grab it (pass --port 0 for an ephemeral port). --connect
// ships the loaded diagram inline as a playback wire request to a running
// server, streams progress over SSE with --progress, and prints the same
// summary from the served report — exit codes are identical to the local
// path, so scripts cannot tell the difference. --disconnect-after-first-
// event drops the SSE connection after one progress frame (the client-
// disconnect-cancels-the-job path, for smoke tests), then polls the report.
//
// --timeout-ms and --max-probes set the request's deadline/probe budget;
// --cancel submits the job with an already-fired CancelToken (exercises the
// cancellation path end to end); --progress streams the job's stage
// boundaries (stage, probes issued, elapsed) to stderr as it runs.
// --fault-rate injects transient probe faults at the given per-batch
// probability (deterministic under --fault-seed), recovered by up to
// --max-retries probe-level retries; retry exhaustion surfaces as a probe
// hard fault with its own exit code. --wall-backoff makes retry backoff
// wait real wall-clock time (polling the CancelToken), so a saturated
// fault rate plus a huge retry budget is a job that runs until cancelled —
// the recipe the CI smoke uses to prove cancel-on-disconnect.
// --transport-latency-us / --transport-bandwidth / --io-depth model the
// instrument link (PR 10): with --io-depth >= 1 the job acquires through an
// InstrumentDriver whose request ring holds that many in-flight batches,
// charging per-batch command latency plus size/bandwidth transfer time to
// the simulated clock; results stay bit-identical to the default synchronous
// path at any depth. The flags ride the wire request too, so the --connect
// lane serves the same transport model with the same exit codes.
// Exit codes are distinct per outcome:
//   0 success, 1 extraction/load failure, 2 usage,
//   3 job cancelled (kCancelled), 4 deadline exceeded (kDeadlineExceeded),
//   5 probe budget exhausted (kBudgetExhausted),
//   6 probe hard fault after retry exhaustion (kProbeHardFault).
//
// Generate inputs with examples/device_playground or dataset tooling:
//   ./device_playground && ./csd_tool playground_clean.csv
#include "common/strings.hpp"
#include "device/charge_state.hpp"
#include "device/dot_array.hpp"
#include "extraction/array_extractor.hpp"
#include "server/extraction_server.hpp"
#include "server/http_client.hpp"
#include "service/extraction_engine.hpp"
#include "service/job_queue.hpp"
#include "wire/json.hpp"
#include "wire/messages.hpp"

#include <chrono>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

namespace {

constexpr int kExitFailure = 1;
constexpr int kExitUsage = 2;
constexpr int kExitCancelled = 3;
constexpr int kExitDeadlineExceeded = 4;
constexpr int kExitBudgetExhausted = 5;
constexpr int kExitProbeHardFault = 6;

int usage() {
  std::cerr << "usage: csd_tool <diagram.csv> [--method fast|hough] "
               "[--dwell seconds] [--timeout-ms T] [--max-probes N] "
               "[--cancel] [--progress] [--fault-rate p] [--fault-seed S] "
               "[--max-retries R] [--wall-backoff]\n"
               "                [--transport-latency-us L] "
               "[--transport-bandwidth B] [--io-depth D]\n"
               "       csd_tool --serve [--port P] [--max-pending N]\n"
               "       csd_tool <diagram.csv> --connect PORT [--tenant NAME] "
               "[--progress] [--disconnect-after-first-event]\n"
               "       csd_tool --dots N [--shards K] [--pixels P] "
               "[--method fast|hough] [--connect PORT]\n"
               "       csd_tool --frontier-probe N\n";
  return kExitUsage;
}

/// The single-pair lanes' flags, which neither --dots lane reads.
bool is_single_pair_flag(const std::string& flag) {
  for (const char* name :
       {"--timeout-ms", "--max-probes", "--cancel", "--fault-rate",
        "--fault-seed", "--max-retries", "--wall-backoff",
        "--transport-latency-us", "--transport-bandwidth", "--io-depth",
        "--progress", "--disconnect-after-first-event"})
    if (flag == name) return true;
  return false;
}

/// Map a composed array status to the tool's typed exit codes.
int array_exit_code(const qvg::Status& status) {
  switch (status.code()) {
    case qvg::ErrorCode::kCancelled: return kExitCancelled;
    case qvg::ErrorCode::kDeadlineExceeded: return kExitDeadlineExceeded;
    case qvg::ErrorCode::kBudgetExhausted: return kExitBudgetExhausted;
    case qvg::ErrorCode::kProbeHardFault: return kExitProbeHardFault;
    default: return kExitFailure;
  }
}

int print_array_outcome(const qvg::ArrayExtractionResult& result,
                        std::size_t dots, const std::string& method) {
  using namespace qvg;
  if (!result.status.ok()) {
    std::cout << "array extraction FAILED ["
              << error_code_name(result.status.code()) << "] at stage '"
              << result.status.stage() << "': " << result.status.detail()
              << " (after " << result.total_stats.total_requests
              << " probe requests, " << result.total_stats.unique_probes
              << " unique probes)\n";
    return array_exit_code(result.status);
  }
  std::cout << "array extraction succeeded (" << dots << " dots, "
            << result.pairs.size() << " pairs, " << method
            << " method)\n"
            << "  band max error vs ideal virtualization = "
            << result.band_max_error << "\n"
            << "  probes: " << result.total_stats.unique_probes
            << " unique across the array, simulated experiment time "
            << format_fixed(result.total_stats.simulated_seconds, 2)
            << " s\n"
            << "  shards: " << result.shards.size() << "\n";
  for (const auto& pair : result.pairs)
    std::cout << "  pair " << pair.pair_index << ": alpha12 = "
              << pair.gates.alpha12 << ", alpha21 = " << pair.gates.alpha21
              << (pair.verdict.success ? "" : "  [verdict: failed]") << "\n";
  return 0;
}

/// --frontier-probe: one deterministic ground-state search, printed in full
/// (occupation, energy, SolveStats) so two runs can be diffed byte for byte.
int run_frontier_probe(std::size_t dots) {
  using namespace qvg;
  DotArrayParams params;
  params.n_dots = dots;
  const BuiltDevice device = build_dot_array(params);
  // Solve at the window centre of every plunger: every dot is active, the
  // largest search a device of this size can ask for.
  std::vector<double> voltages = device.base_voltages;
  const double centre = 0.5 * (params.window_lo + params.window_hi);
  for (std::size_t g = 0; g < device.model.num_gates(); ++g)
    voltages[g] = centre;
  const auto drives = device.model.dot_drives(voltages);

  GroundStateSolver solver;
  solver.bind(device.model);
  const std::vector<int> occupation = solver.solve(drives, {});
  const SolveStats& stats = solver.last_stats();

  std::cout << "ground-state search on a " << dots
            << "-dot device at the window centre\n  occupation = [";
  for (std::size_t d = 0; d < occupation.size(); ++d)
    std::cout << (d == 0 ? "" : ", ") << occupation[d];
  std::cout << "]\n  energy = " << device.model.energy(occupation, drives)
            << "\n  stats: nodes=" << stats.nodes
            << " capped=" << (stats.capped ? "yes" : "no") << "\n";
  return 0;
}

/// Shared outcome printing + exit-code mapping: ExtractionReport (local
/// path) and wire::WireReport (served path) expose the same field names,
/// so the served summary is byte-for-byte the local one.
template <class ReportT>
int print_outcome(const ReportT& report, const std::string& method,
                  std::size_t total_pixels) {
  using namespace qvg;
  if (!report.status.ok()) {
    const bool interrupted =
        report.status.code() == ErrorCode::kCancelled ||
        report.status.code() == ErrorCode::kDeadlineExceeded ||
        report.status.code() == ErrorCode::kBudgetExhausted;
    std::cout << "extraction " << (interrupted ? "INTERRUPTED [" : "FAILED [")
              << error_code_name(report.status.code()) << "] at stage '"
              << report.status.stage() << "': " << report.status.detail()
              << " (after " << report.stats.total_requests
              << " probe requests, " << report.stats.unique_probes
              << " unique probes)\n";
    if (report.fault_stats.transient_faults > 0)
      std::cout << "  faults: " << report.fault_stats.transient_faults
                << " transient, " << report.fault_stats.retries
                << " retries, backoff "
                << format_fixed(report.fault_stats.backoff_seconds, 2)
                << " s\n";
    if (report.fault_stats.driver_batches > 0 ||
        report.fault_stats.driver_aborted_transfers > 0)
      std::cout << "  driver: " << report.fault_stats.driver_batches
                << " transfers, " << report.fault_stats.driver_aborted_transfers
                << " aborted, max in-flight "
                << report.fault_stats.driver_max_inflight << ", transport "
                << format_fixed(report.fault_stats.transport_stall_seconds, 3)
                << " s\n";
    switch (report.status.code()) {
      case ErrorCode::kCancelled: return kExitCancelled;
      case ErrorCode::kDeadlineExceeded: return kExitDeadlineExceeded;
      case ErrorCode::kBudgetExhausted: return kExitBudgetExhausted;
      case ErrorCode::kProbeHardFault: return kExitProbeHardFault;
      default: return kExitFailure;
    }
  }
  const VirtualGatePair& gates = report.virtual_gates;
  std::cout << "extraction succeeded (" << method << " method)\n"
            << "  alpha12 = " << gates.alpha12
            << ", alpha21 = " << gates.alpha21 << "\n"
            << "  virtualization matrix [[1, " << gates.alpha12 << "], ["
            << gates.alpha21 << ", 1]]\n"
            << "  probes: " << report.stats.unique_probes << " ("
            << format_fixed(100.0 *
                                static_cast<double>(report.stats.unique_probes) /
                                static_cast<double>(total_pixels),
                            2)
            << "% of the diagram), simulated experiment time "
            << format_fixed(report.stats.simulated_seconds, 2) << " s\n";
  if (report.fault_stats.transient_faults > 0 ||
      report.fault_stats.drift_events > 0)
    std::cout << "  faults absorbed: " << report.fault_stats.transient_faults
              << " transient, " << report.fault_stats.drift_events
              << " drift; " << report.fault_stats.retries
              << " retries, backoff "
              << format_fixed(report.fault_stats.backoff_seconds, 2)
              << " s, " << report.fault_stats.reacquired_rows
              << " rows re-acquired\n";
  if (report.fault_stats.driver_batches > 0)
    std::cout << "  driver: " << report.fault_stats.driver_batches
              << " transfers, " << report.fault_stats.driver_aborted_transfers
              << " aborted, max in-flight "
              << report.fault_stats.driver_max_inflight << ", transport "
              << format_fixed(report.fault_stats.transport_stall_seconds, 3)
              << " s\n";

  if (report.has_verdict) {
    const Verdict& verdict = report.verdict;
    std::cout << "  vs ground truth: "
              << (verdict.success ? "within tolerance" : verdict.reason)
              << " (a12 err "
              << format_fixed(100.0 * verdict.alpha12_rel_error, 1)
              << "%, a21 err "
              << format_fixed(100.0 * verdict.alpha21_rel_error, 1)
              << "%, virtualized angle "
              << format_fixed(verdict.virtualized_angle_deg, 1) << " deg)\n";
  }
  return 0;
}

/// --serve: run the embedded server until POST /v1/shutdown.
int run_server(std::uint16_t port, std::size_t max_pending) {
  using namespace qvg::server;
  ServerOptions options;
  options.port = port;
  options.max_pending = max_pending;
  ExtractionServer server(options);
  const qvg::Status started = server.start();
  if (!started.ok()) {
    std::cerr << "error [" << qvg::error_code_name(started.code())
              << "]: " << started.detail() << "\n";
    return kExitFailure;
  }
  // Scripts parse this line for the bound (possibly ephemeral) port.
  std::cout << "serving on 127.0.0.1:" << server.port() << std::endl;
  server.wait_for_shutdown();
  server.stop();
  std::cout << "shutdown complete\n";
  return 0;
}

/// --connect: ship the request to a running server, stream progress, and
/// print the served report through the same summary path as a local run.
int run_client(const qvg::wire::WireRequest& request, std::uint16_t port,
               const std::string& tenant, bool show_progress,
               bool disconnect_after_first_event, std::size_t total_pixels,
               const std::string& method) {
  using namespace qvg;
  using namespace qvg::server;

  const std::vector<std::uint8_t> bytes = wire::encode(request);
  std::string query;
  if (!tenant.empty()) query = "?tenant=" + tenant;
  Result<ClientResponse> submitted = http_call(
      port, "POST", "/v1/jobs" + query,
      {reinterpret_cast<const char*>(bytes.data()), bytes.size()});
  if (!submitted.ok()) {
    std::cerr << "error [" << error_code_name(submitted.status().code())
              << "]: " << submitted.status().detail() << "\n";
    return kExitFailure;
  }
  if (submitted.value().status != 200) {
    std::cerr << "submit rejected (HTTP " << submitted.value().status
              << "): " << submitted.value().body << "\n";
    return kExitFailure;
  }
  Result<wire::JsonValue> doc = wire::parse_json(submitted.value().body);
  const wire::JsonValue* job =
      doc.ok() ? doc.value().find("job") : nullptr;
  if (job == nullptr) {
    std::cerr << "malformed submit response: " << submitted.value().body
              << "\n";
    return kExitFailure;
  }
  const std::string id = std::to_string(job->as_u64());
  std::cerr << "[client] submitted job " << id << " to 127.0.0.1:" << port
            << (tenant.empty() ? "" : " as tenant '" + tenant + "'") << "\n";

  if (show_progress || disconnect_after_first_event) {
    SseClient sse;
    const Status connected = sse.connect(port, "/v1/jobs/" + id + "/events");
    if (!connected.ok()) {
      std::cerr << "error [" << error_code_name(connected.code())
                << "]: " << connected.detail() << "\n";
      return kExitFailure;
    }
    std::string last_stage;
    for (;;) {
      Result<std::optional<std::string>> frame = sse.next_event();
      if (!frame.ok() || !frame.value().has_value()) break;
      const std::string& text = *frame.value();
      if (text.rfind("event: done", 0) == 0) break;
      if (text.rfind("data: ", 0) != 0) continue;
      Result<ProgressEvent> event = wire::progress_from_json(text.substr(6));
      if (!event.ok()) continue;
      if (show_progress && event.value().stage != last_stage) {
        last_stage = event.value().stage;
        std::cerr << "[progress] stage=" << event.value().stage
                  << " probes=" << event.value().probes_used << " elapsed="
                  << format_fixed(event.value().elapsed_seconds * 1e3, 1)
                  << " ms\n";
      }
      if (disconnect_after_first_event) {
        // Drop the stream mid-job: the server fires the job's CancelToken
        // (cancel-on-disconnect), which the report fetch below observes.
        sse.close();
        std::cerr << "[client] dropped the progress stream after one event\n";
        break;
      }
    }
  }

  Result<ClientResponse> fetched =
      http_call(port, "GET", "/v1/jobs/" + id + "?wait=1");
  if (!fetched.ok() || fetched.value().status != 200) {
    std::cerr << "report fetch failed\n";
    return kExitFailure;
  }
  const std::string& body = fetched.value().body;
  Result<wire::WireReport> report = wire::decode_report(
      {reinterpret_cast<const std::uint8_t*>(body.data()), body.size()});
  if (!report.ok()) {
    std::cerr << "error [" << error_code_name(report.status().code())
              << "]: " << report.status().detail() << "\n";
    return kExitFailure;
  }
  return print_outcome(report.value(), method, total_pixels);
}

/// --dots without --connect: run the array walk through the local engine.
int run_array_local(std::size_t dots, const std::string& method, double dwell,
                    std::size_t pixels, std::size_t shards) {
  using namespace qvg;
  DotArrayParams params;
  params.n_dots = dots;
  const BuiltDevice device = build_dot_array(params);
  ArrayExtractionOptions opt;
  opt.method = method == "fast" ? ExtractionMethod::kFast
                                : ExtractionMethod::kHoughBaseline;
  opt.pixels_per_axis = pixels;
  opt.dwell_seconds = dwell;
  opt.shards = shards;
  const ExtractionEngine engine;
  return print_array_outcome(engine.run_array(device, opt), dots, method);
}

/// --dots with --connect: submit the n-1 pair extractions as self-contained
/// device wire requests, fetch each served report, and compose the array
/// result client-side — same composition (and same summary) as the local
/// walk, with the device rebuilt locally from the identical params.
int run_array_client(std::size_t dots, const std::string& method, double dwell,
                     std::size_t pixels, std::size_t shards,
                     std::uint16_t port, const std::string& tenant) {
  using namespace qvg;
  using namespace qvg::server;

  DotArrayParams params;
  params.n_dots = dots;

  std::string query;
  if (!tenant.empty()) query = "?tenant=" + tenant;

  // Submit all n-1 pairs first (the server fans them out across its own
  // worker pool), then collect the reports in pair order.
  std::vector<std::string> job_ids;
  job_ids.reserve(dots - 1);
  for (std::size_t pair_index = 0; pair_index + 1 < dots; ++pair_index) {
    wire::WireRequest request;
    request.method = method == "fast" ? ExtractionMethod::kFast
                                      : ExtractionMethod::kHoughBaseline;
    request.backend = wire::WireBackendKind::kDevice;
    request.device.params = params;
    request.device.pair_index = pair_index;
    request.device.noise_seed = 42 + pair_index;  // the array walk's schedule
    request.device.dwell_seconds = dwell;
    request.device.pixels_per_axis = pixels;
    request.label = "pair-" + std::to_string(pair_index);

    const std::vector<std::uint8_t> bytes = wire::encode(request);
    Result<ClientResponse> submitted = http_call(
        port, "POST", "/v1/jobs" + query,
        {reinterpret_cast<const char*>(bytes.data()), bytes.size()});
    if (!submitted.ok() || submitted.value().status != 200) {
      std::cerr << "pair " << pair_index << " submit failed\n";
      return kExitFailure;
    }
    Result<wire::JsonValue> doc = wire::parse_json(submitted.value().body);
    const wire::JsonValue* job = doc.ok() ? doc.value().find("job") : nullptr;
    if (job == nullptr) {
      std::cerr << "malformed submit response: " << submitted.value().body
                << "\n";
      return kExitFailure;
    }
    job_ids.push_back(std::to_string(job->as_u64()));
  }
  std::cerr << "[client] submitted " << job_ids.size()
            << " pair extractions to 127.0.0.1:" << port << "\n";

  std::vector<PairExtraction> pairs(job_ids.size());
  for (std::size_t i = 0; i < job_ids.size(); ++i) {
    Result<ClientResponse> fetched =
        http_call(port, "GET", "/v1/jobs/" + job_ids[i] + "?wait=1");
    if (!fetched.ok() || fetched.value().status != 200) {
      std::cerr << "pair " << i << " report fetch failed\n";
      return kExitFailure;
    }
    const std::string& body = fetched.value().body;
    Result<wire::WireReport> report = wire::decode_report(
        {reinterpret_cast<const std::uint8_t*>(body.data()), body.size()});
    if (!report.ok()) {
      std::cerr << "error [" << error_code_name(report.status().code())
                << "]: " << report.status().detail() << "\n";
      return kExitFailure;
    }
    pairs[i].pair_index = i;
    pairs[i].status = report.value().status;
    pairs[i].gates = report.value().virtual_gates;
    pairs[i].verdict = report.value().verdict;
    pairs[i].stats = report.value().stats;
  }

  // build_dot_array is deterministic given params, so the client-side device
  // is bit-identical to each server-side materialization.
  const BuiltDevice device = build_dot_array(params);
  return print_array_outcome(
      compose_array_result(device, std::move(pairs), shards), dots, method);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace qvg;
  if (argc < 2) return usage();

  std::string path;
  std::string method = "fast";
  double dwell = 0.050;
  double timeout_ms = 0.0;
  long max_probes = 0;
  bool cancel_job = false;
  bool show_progress = false;
  double fault_rate = 0.0;
  unsigned long long fault_seed = 0x5eedfa17u;
  int max_retries = 3;
  bool serve = false;
  long port = 8477;  // default --serve port; --connect has no default
  long max_pending = 0;
  long connect_port = 0;
  std::string tenant;
  bool disconnect_after_first_event = false;
  bool wall_backoff = false;
  long dots = 0;
  long frontier_probe_dots = 0;
  long shards = 0;
  long pixels = 48;
  double transport_latency_us = 0.0;
  double transport_bandwidth = 0.0;
  long io_depth = 0;
  bool single_pair_flag = false;  // a flag only the single-pair lanes read

  const int first_flag = argv[1][0] == '-' ? 1 : 2;
  if (first_flag == 2) path = argv[1];
  try {
    for (int i = first_flag; i < argc; ++i) {
      const std::string flag = argv[i];
      single_pair_flag = single_pair_flag || is_single_pair_flag(flag);
      if (flag == "--cancel") {
        cancel_job = true;
      } else if (flag == "--progress") {
        show_progress = true;
      } else if (flag == "--serve") {
        serve = true;
      } else if (flag == "--disconnect-after-first-event") {
        disconnect_after_first_event = true;
      } else if (flag == "--wall-backoff") {
        wall_backoff = true;
      } else if (i + 1 >= argc) {
        return usage();
      } else if (flag == "--method") {
        method = argv[++i];
      } else if (flag == "--dwell") {
        dwell = std::stod(argv[++i]);
      } else if (flag == "--timeout-ms") {
        timeout_ms = std::stod(argv[++i]);
      } else if (flag == "--max-probes") {
        max_probes = std::stol(argv[++i]);
      } else if (flag == "--fault-rate") {
        fault_rate = std::stod(argv[++i]);
      } else if (flag == "--fault-seed") {
        fault_seed = std::stoull(argv[++i]);
      } else if (flag == "--max-retries") {
        max_retries = std::stoi(argv[++i]);
      } else if (flag == "--port") {
        port = std::stol(argv[++i]);
      } else if (flag == "--max-pending") {
        max_pending = std::stol(argv[++i]);
      } else if (flag == "--connect") {
        connect_port = std::stol(argv[++i]);
      } else if (flag == "--tenant") {
        tenant = argv[++i];
      } else if (flag == "--dots") {
        dots = std::stol(argv[++i]);
      } else if (flag == "--shards") {
        shards = std::stol(argv[++i]);
      } else if (flag == "--pixels") {
        pixels = std::stol(argv[++i]);
      } else if (flag == "--frontier-probe") {
        frontier_probe_dots = std::stol(argv[++i]);
      } else if (flag == "--transport-latency-us") {
        transport_latency_us = std::stod(argv[++i]);
      } else if (flag == "--transport-bandwidth") {
        transport_bandwidth = std::stod(argv[++i]);
      } else if (flag == "--io-depth") {
        io_depth = std::stol(argv[++i]);
      } else {
        return usage();
      }
    }
  } catch (const std::exception&) {  // malformed number: a usage error
    return usage();
  }
  if (serve) {
    if (port < 0 || port > 65535) return usage();
    return run_server(static_cast<std::uint16_t>(port),
                      static_cast<std::size_t>(max_pending));
  }

  if (frontier_probe_dots > 0) {
    if (frontier_probe_dots < 2 || frontier_probe_dots > 64) return usage();
    return run_frontier_probe(static_cast<std::size_t>(frontier_probe_dots));
  }
  if (dots > 0) {
    if (dots < 2 || dots > 64 || single_pair_flag) return usage();
    if (method != "fast" && method != "hough") return usage();
    if (pixels < 16 || shards < 0) return usage();
    if (connect_port < 0 || connect_port > 65535) return usage();
    if (connect_port > 0)
      return run_array_client(static_cast<std::size_t>(dots), method, dwell,
                              static_cast<std::size_t>(pixels),
                              static_cast<std::size_t>(shards),
                              static_cast<std::uint16_t>(connect_port),
                              tenant);
    return run_array_local(static_cast<std::size_t>(dots), method, dwell,
                           static_cast<std::size_t>(pixels),
                           static_cast<std::size_t>(shards));
  }

  if (path.empty()) return usage();
  if (method != "fast" && method != "hough") return usage();
  if (fault_rate < 0.0 || fault_rate > 1.0 || max_retries < 0) return usage();
  if (connect_port < 0 || connect_port > 65535) return usage();
  // Same bounds the wire layer enforces in materialize(): rejecting here
  // turns a bad flag into exit 2 instead of a served kInvalidRequest.
  if (transport_latency_us < 0.0 || transport_bandwidth < 0.0 ||
      io_depth < 0 || io_depth > 256)
    return usage();

  // Typed load: missing and malformed files are ordinary Status failures.
  const Result<Csd> loaded = try_load_csd_csv(path);
  if (!loaded) {
    std::cerr << "error [" << error_code_name(loaded.status().code())
              << "]: " << loaded.status().detail() << "\n";
    return kExitFailure;
  }
  const Csd& csd = *loaded;
  std::cout << "loaded " << path << ": " << csd.width() << "x" << csd.height()
            << " pixels, VP1 " << csd.x_axis().start() << ".."
            << csd.x_axis().end() << " V, VP2 " << csd.y_axis().start()
            << ".." << csd.y_axis().end() << " V\n";
  const std::size_t total_pixels = csd.width() * csd.height();

  if (connect_port > 0) {
    // Served path: the diagram travels inline as a playback wire request.
    wire::WireRequest request;
    request.method = method == "fast" ? ExtractionMethod::kFast
                                      : ExtractionMethod::kHoughBaseline;
    request.backend = wire::WireBackendKind::kPlayback;
    request.playback.csd = csd;
    request.playback.dwell_seconds = dwell;
    request.label = path;
    request.deadline_ms = static_cast<std::uint64_t>(timeout_ms);
    request.budget.max_probes = max_probes;
    if (fault_rate > 0.0) {
      request.faults.transient_rate = fault_rate;
      request.faults.seed = fault_seed;
    }
    request.retry.max_attempts = max_retries + 1;
    request.retry.wall_clock_backoff = wall_backoff;
    request.transport.latency_us = transport_latency_us;
    request.transport.bandwidth = transport_bandwidth;
    request.transport.io_depth = io_depth;
    return run_client(request, static_cast<std::uint16_t>(connect_port),
                      tenant, show_progress, disconnect_after_first_event,
                      total_pixels, method);
  }

  ExtractionRequest request;
  request.method = method == "fast" ? ExtractionMethod::kFast
                                    : ExtractionMethod::kHoughBaseline;
  request.playback.csd = &csd;
  request.playback.dwell_seconds = dwell;
  request.label = path;
  if (timeout_ms > 0.0)
    request.deadline = std::chrono::steady_clock::now() +
                       std::chrono::microseconds(
                           static_cast<long long>(timeout_ms * 1e3));
  request.budget.max_probes = max_probes;
  if (fault_rate > 0.0) {
    request.faults.transient_rate = fault_rate;
    request.faults.seed = fault_seed;
  }
  // max_attempts counts the first try; "--max-retries 0" means one attempt,
  // so any injected transient escalates straight to a hard fault.
  request.retry.max_attempts = max_retries + 1;
  request.retry.wall_clock_backoff = wall_backoff;
  request.transport.latency_us = transport_latency_us;
  request.transport.bandwidth = transport_bandwidth;
  request.transport.io_depth = io_depth;

  SubmitOptions options;
  options.priority = Priority::kInteractive;  // a human is waiting
  options.cancel = CancelToken::make();
  if (cancel_job) options.cancel.cancel();
  if (show_progress) {
    // Print stage transitions only (every batch boundary would be one line
    // per raster row); the final event count still shows in the summary.
    options.on_progress = [last = std::string()](
                              const ProgressEvent& event) mutable {
      if (event.stage == last) return;
      last = event.stage;
      std::cerr << "[progress] stage=" << event.stage
                << " probes=" << event.probes_used << " elapsed="
                << qvg::format_fixed(event.elapsed_seconds * 1e3, 1)
                << " ms\n";
    };
  }

  JobQueue jobs;
  const ExtractionReport report =
      jobs.submit(request, std::move(options)).wait();
  return print_outcome(report, method, total_pixels);
}
