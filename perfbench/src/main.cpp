// Entry point of the repo benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--raw-dir <dir>]
//
// Prints the host calibration, the workload's checks and a metric table,
// then — as the last line of stdout — one JSON object with the keys
// correct, attempted, failed and metrics (the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1). Exits 1 when any
// output check failed. See perfbench/README.md.
#include "workloads.hpp"

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

namespace {

using namespace perfbench;

int usage(const char* detail) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "table1_playback|served_mixed_64px|array_frontier_16dot "
               "--seed N --seconds S --trace 0|1 [--raw-dir DIR]\n",
               detail);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      config.workload = value;
    } else if (key == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      config.seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      config.trace = value == "1";
    } else if (key == "--raw-dir") {
      config.raw_dir = value;
    } else {
      return usage(("unknown argument " + key).c_str());
    }
  }
  if (argc % 2 == 0) return usage("arguments must come in --key value pairs");
  if (!(config.seconds > 0.0 && config.seconds <= 60.0))
    return usage("--seconds must be in (0, 60]");

  Outcome (*run)(const RunConfig&) = nullptr;
  if (config.workload == "table1_playback") {
    run = run_table1_playback;
    // One caller on a one-thread pool: the engine's raster/Canny fan-out
    // buys nothing at this job size and makes the run track the host's
    // fluctuating core count. An explicit QVG_THREADS wins.
    setenv("QVG_THREADS", "1", /*overwrite=*/0);
  } else if (config.workload == "served_mixed_64px")
    run = run_served_mixed_64px;
  else if (config.workload == "array_frontier_16dot")
    run = run_array_frontier_16dot;
  else
    return usage(("unknown workload '" + config.workload + "'").c_str());

  Outcome outcome;
  try {
    outcome = run(config);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", config.workload.c_str(),
                 error.what());
    return 1;
  }
  // Calibrated after the workload, so spinning every core cannot disturb
  // the measurements.
  const Host host = calibrate_host();
  std::printf("host %s\n", host_json(host).c_str());
  for (const std::string& note : outcome.notes)
    std::printf("%s\n", note.c_str());
  std::printf("%s (seed %llu, %s, %ld attempted, %ld failed, "
              "error_fraction %.6g)\n%s",
              config.workload.c_str(),
              static_cast<unsigned long long>(config.seed),
              config.trace ? "traced" : "untraced", outcome.attempted,
              outcome.failed,
              outcome.attempted > 0
                  ? static_cast<double>(outcome.failed) /
                        static_cast<double>(outcome.attempted)
                  : 0.0,
              outcome.metrics.table().c_str());
  write_raw(config, host, outcome);
  const bool correct =
      outcome.correct && outcome.attempted > 0 && outcome.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", outcome.attempted, outcome.failed,
              outcome.metrics.json().c_str());
  return correct ? 0 : 1;
}
