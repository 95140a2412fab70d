// Ablation study over the design choices the
// paper motivates in §4.3.2: the two sweep directions and the
// post-processing filter, plus this implementation's robustness additions
// (triangle slack, anchor-step clamp, Huber loss). Each variant runs over
// the succeeding benchmarks of the suite; we report success count, mean
// compensation-coefficient error, and mean probes.
#include "common/strings.hpp"
#include "dataset/qflow_synth.hpp"
#include "extraction/fast_extractor.hpp"
#include "extraction/success.hpp"

#include <cmath>
#include <iostream>
#include <vector>

namespace {

struct Variant {
  std::string name;
  qvg::FastExtractorOptions options;
};

struct Tally {
  int successes = 0;
  int runs = 0;
  double error_sum = 0.0;
  long probe_sum = 0;
};

}  // namespace

int main() {
  using namespace qvg;

  std::vector<Variant> variants;
  variants.push_back({"full method (paper + robustness)", {}});
  {
    FastExtractorOptions opt;
    opt.enable_col_sweep = false;
    variants.push_back({"row sweep only", opt});
  }
  {
    FastExtractorOptions opt;
    opt.enable_row_sweep = false;
    variants.push_back({"column sweep only", opt});
  }
  {
    FastExtractorOptions opt;
    opt.enable_postprocess = false;
    variants.push_back({"no post-processing filter", opt});
  }
  {
    FastExtractorOptions opt;
    opt.sweep.triangle_slack_pixels = 0;
    opt.sweep.max_anchor_step = 0;
    opt.anchors.snap_radius = 0;
    variants.push_back({"paper-literal sweeps (no slack/clamp/snap)", opt});
  }
  {
    FastExtractorOptions opt;
    opt.fit.huber_delta_px = 0.0;
    variants.push_back({"plain least-squares fit (no Huber)", opt});
  }
  {
    FastExtractorOptions opt;
    opt.fit.residual = FitResidual::kVertical;
    variants.push_back({"vertical-residual fit (SciPy-style)", opt});
  }

  // Benchmarks 3-12 (skip the two engineered-to-fail heavy-noise devices).
  std::vector<QflowBenchmark> benchmarks;
  for (const auto& spec : qflow_suite_specs())
    if (spec.index >= 3) benchmarks.push_back(build_qflow_benchmark(spec));

  std::vector<std::vector<std::string>> rows;
  for (const auto& variant : variants) {
    Tally tally;
    for (const auto& benchmark : benchmarks) {
      auto playback = make_playback(benchmark);
      const auto result =
          run_fast_extraction(*playback, benchmark.csd.x_axis(),
                              benchmark.csd.y_axis(), variant.options);
      const auto& truth = *benchmark.csd.truth();
      const Verdict verdict =
          judge_extraction(result.status.ok(), result.virtual_gates, truth);
      ++tally.runs;
      tally.successes += verdict.success ? 1 : 0;
      if (result.status.ok()) {
        tally.error_sum += 0.5 * (verdict.alpha12_rel_error +
                                  verdict.alpha21_rel_error);
      } else {
        tally.error_sum += 1.0;  // count hard failures as 100% error
      }
      tally.probe_sum += result.stats.unique_probes;
    }
    rows.push_back(
        {variant.name,
         std::to_string(tally.successes) + "/" + std::to_string(tally.runs),
         format_fixed(100.0 * tally.error_sum / tally.runs, 1) + "%",
         std::to_string(tally.probe_sum / tally.runs)});
  }

  std::cout << "Ablation over benchmarks CSD 3-12 (success counts use the "
               "same verdict as Table 1)\n\n"
            << render_table({"variant", "success", "mean alpha error",
                             "mean probes"},
                            rows)
            << "\nExpected shape: dropping either sweep loses successes and "
               "the paper-literal sweeps are more fragile; the "
               "post-processing filter lowers the mean error without "
               "changing the success count; the Huber loss and the residual "
               "choice do not change the suite.\n";
  return 0;
}
