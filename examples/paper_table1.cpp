// Reproduces the paper's Table 1 ("Result Summary"): for each of the 12
// benchmark CSDs, run the fast extraction and the Canny+Hough baseline
// against a replayed diagram (50 ms dwell per unique probe, §5.1) and report
// success/fail, points probed (count and percentage), total runtime
// (simulated experiment time + measured compute time), and speedup.
//
// Absolute times differ from the paper (their substrate is the qflow
// measurement corpus; ours is a physics simulator, see
// dataset/qflow_synth.hpp), but the
// shape should match: fast succeeds 10/12 and baseline 9/12, fast probes
// ~4-17% of the pixels, and speedups fall in the ~6x-20x band growing with
// diagram size.
#include "common/strings.hpp"
#include "dataset/qflow_synth.hpp"
#include "service/extraction_engine.hpp"

#include <iostream>
#include <string>
#include <vector>

namespace {

struct Row {
  int index;
  std::size_t size;
  bool fast_ok;
  bool base_ok;
  long fast_probes;
  long base_probes;
  double fast_seconds;
  double base_seconds;
  std::string fast_note;
  std::string base_note;
};

}  // namespace

int main() {
  using namespace qvg;

  std::cout << "Table 1 reproduction: fast virtual gate extraction vs "
               "Canny+Hough baseline\n"
            << "(synthetic qflow-like suite, 50 ms dwell per unique probe; "
               "see src/dataset/qflow_synth.hpp)\n\n";

  std::vector<Row> rows;
  int fast_successes = 0;
  int base_successes = 0;

  // The whole table is one engine batch: per benchmark CSD, one fast and
  // one baseline playback request (each builds its own replayed getCurrent,
  // so the batch fans out deterministically).
  const std::vector<QflowBenchmark> suite = build_qflow_suite();
  std::vector<ExtractionRequest> requests;
  for (const auto& benchmark : suite) {
    for (const auto method :
         {ExtractionMethod::kFast, ExtractionMethod::kHoughBaseline}) {
      ExtractionRequest request;
      request.method = method;
      request.playback.csd = &benchmark.csd;
      request.label = benchmark.name();
      requests.push_back(std::move(request));
    }
  }
  const ExtractionEngine engine;
  const std::vector<ExtractionReport> reports = engine.run_batch(requests);

  for (std::size_t i = 0; i < suite.size(); ++i) {
    const QflowBenchmarkSpec& spec = suite[i].spec;
    const ExtractionReport& fast = reports[2 * i];
    const ExtractionReport& base = reports[2 * i + 1];

    Row row{};
    row.index = spec.index;
    row.size = spec.pixels;

    row.fast_ok = fast.verdict.success;
    row.fast_probes = fast.stats.unique_probes;
    row.fast_seconds = fast.stats.total_seconds();
    row.fast_note = fast.verdict.success ? "" : fast.verdict.reason;
    fast_successes += fast.verdict.success ? 1 : 0;

    row.base_ok = base.verdict.success;
    row.base_probes = base.stats.unique_probes;
    row.base_seconds = base.stats.total_seconds();
    row.base_note = base.verdict.success
                        ? ""
                        : (base.status.ok() ? base.verdict.reason
                                            : base.status.message());
    base_successes += base.verdict.success ? 1 : 0;

    rows.push_back(row);
  }

  std::vector<std::string> header{
      "CSD", "Size", "Fast", "Baseline", "Fast probes", "Base probes",
      "Fast time", "Base time", "Speedup"};
  std::vector<std::vector<std::string>> cells;
  for (const auto& row : rows) {
    const double total =
        static_cast<double>(row.size) * static_cast<double>(row.size);
    const double pct = 100.0 * static_cast<double>(row.fast_probes) / total;
    const bool both = row.fast_ok && row.base_ok;
    cells.push_back({
        std::to_string(row.index),
        std::to_string(row.size) + "x" + std::to_string(row.size),
        row.fast_ok ? "Success" : "Fail",
        row.base_ok ? "Success" : "Fail",
        std::to_string(row.fast_probes) + " (" + format_fixed(pct, 2) + "%)",
        std::to_string(row.base_probes) + " (100%)",
        format_fixed(row.fast_seconds, 2) + "s",
        format_fixed(row.base_seconds, 2) + "s",
        both ? format_fixed(row.base_seconds / row.fast_seconds, 2) + "x"
             : "N/A",
    });
  }
  std::cout << render_table(header, cells);

  std::cout << "\nSuccess rate: fast " << fast_successes
            << "/12, baseline " << base_successes << "/12\n";
  for (const auto& row : rows) {
    if (!row.fast_note.empty())
      std::cout << "  csd" << row.index << " fast: " << row.fast_note << "\n";
    if (!row.base_note.empty())
      std::cout << "  csd" << row.index << " baseline: " << row.base_note
                << "\n";
  }

  // Shape check against the paper (soft: report, do not abort).
  std::cout << "\nPaper shape: fast 10/12, baseline 9/12, speedups "
               "5.84x-19.34x, ~10% points probed on average.\n";
  return 0;
}
