// Noise-robustness sweep, extending the paper's
// Table 1 failure analysis: success rate and mean compensation error of
// both methods versus the white-noise level, on a fixed double-dot device
// (several noise seeds per level). Shows where each method breaks down and
// that the fast method keeps its ~10x probe advantage until both fail.
#include "common/strings.hpp"
#include "device/dot_array.hpp"
#include "extraction/fast_extractor.hpp"
#include "extraction/hough_baseline.hpp"
#include "extraction/success.hpp"

#include <iostream>
#include <memory>
#include <vector>

int main() {
  using namespace qvg;

  DotArrayParams params;
  params.n_dots = 2;
  params.cross_ratio = 0.25;
  Rng jitter(23);
  params.jitter = 0.04;
  const BuiltDevice device = build_dot_array(params, &jitter);
  const VoltageAxis axis = scan_axis(device, 100);
  const TransitionTruth truth =
      device.model.pair_truth(0, 1, 0, 1, device.base_voltages);

  const std::vector<double> noise_levels{0.0,  0.02, 0.05, 0.08, 0.12,
                                         0.18, 0.25, 0.35, 0.50};
  constexpr int kSeeds = 5;

  std::vector<std::vector<std::string>> rows;
  for (double sigma : noise_levels) {
    int fast_ok = 0;
    int base_ok = 0;
    double fast_err = 0.0;
    double base_err = 0.0;
    long fast_probes = 0;
    for (int seed = 0; seed < kSeeds; ++seed) {
      {
        DeviceSimulator sim =
            make_pair_simulator(device, 0, 1000 + static_cast<std::uint64_t>(seed));
        if (sigma > 0) sim.add_noise(std::make_unique<WhiteNoise>(sigma));
        const auto result = run_fast_extraction(sim, axis, axis);
        const Verdict verdict =
            judge_extraction(result.status.ok(), result.virtual_gates, truth);
        fast_ok += verdict.success ? 1 : 0;
        fast_err += result.status.ok()
                        ? 0.5 * (verdict.alpha12_rel_error +
                                 verdict.alpha21_rel_error)
                        : 1.0;
        fast_probes += result.stats.unique_probes;
      }
      {
        DeviceSimulator sim =
            make_pair_simulator(device, 0, 2000 + static_cast<std::uint64_t>(seed));
        if (sigma > 0) sim.add_noise(std::make_unique<WhiteNoise>(sigma));
        const auto result = run_hough_baseline(sim, axis, axis);
        const Verdict verdict =
            judge_extraction(result.status.ok(), result.virtual_gates, truth);
        base_ok += verdict.success ? 1 : 0;
        base_err += result.status.ok()
                        ? 0.5 * (verdict.alpha12_rel_error +
                                 verdict.alpha21_rel_error)
                        : 1.0;
      }
    }
    rows.push_back({format_fixed(sigma, 2),
                    std::to_string(fast_ok) + "/" + std::to_string(kSeeds),
                    format_fixed(100.0 * fast_err / kSeeds, 1) + "%",
                    std::to_string(base_ok) + "/" + std::to_string(kSeeds),
                    format_fixed(100.0 * base_err / kSeeds, 1) + "%",
                    std::to_string(fast_probes / kSeeds)});
  }

  std::cout << "Success rate vs white-noise sigma (sensor peak current = 1.0; "
            << kSeeds << " noise seeds per level, 100x100 scans)\n\n"
            << render_table({"sigma", "fast ok", "fast err", "baseline ok",
                             "baseline err", "fast probes"},
                            rows)
            << "\nExpected shape: the fast method fails first under white "
               "noise (it loses seeds from sigma 0.05 while the baseline "
               "holds through 0.08), both fail at high noise (the paper's "
               "CSDs 1-2 regime), and the fast method probes at most ~10% "
               "of the 10000-pixel diagram throughout.\n";
  return 0;
}
