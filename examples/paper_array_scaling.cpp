// Array-scaling study: virtualizing a linear
// N-dot array needs N-1 sequential pair extractions (paper §2.3). This
// bench measures total probes and simulated experiment time for the fast
// method vs the full-CSD baseline as N grows — the wall-clock argument for
// fast extraction on the 12- and 16-qubit devices the paper's introduction
// cites.
#include "common/strings.hpp"
#include "extraction/array_extractor.hpp"

#include <iostream>
#include <vector>

int main() {
  using namespace qvg;

  std::cout << "Array scaling: N-dot linear arrays, one extraction per "
               "neighbouring plunger pair (100x100 scans, 50 ms dwell)\n\n";

  std::vector<std::vector<std::string>> rows;
  for (std::size_t n_dots : {2u, 3u, 4u, 6u, 8u}) {
    DotArrayParams params;
    params.n_dots = n_dots;
    params.jitter = 0.04;
    Rng jitter(100 + n_dots);
    const BuiltDevice device = build_dot_array(params, &jitter);

    ArrayExtractionOptions fast_opt;
    fast_opt.pixels_per_axis = 100;
    fast_opt.white_noise_sigma = 0.02;
    const auto fast = extract_array_virtualization(device, fast_opt);

    ArrayExtractionOptions base_opt = fast_opt;
    base_opt.method = ExtractionMethod::kHoughBaseline;
    const auto base = extract_array_virtualization(device, base_opt);

    const double fast_minutes = fast.total_stats.total_seconds() / 60.0;
    const double base_minutes = base.total_stats.total_seconds() / 60.0;
    rows.push_back({std::to_string(n_dots),
                    std::to_string(n_dots - 1),
                    std::string(fast.status.ok() ? "yes" : "no"),
                    std::to_string(fast.total_stats.unique_probes),
                    std::to_string(base.total_stats.unique_probes),
                    format_fixed(fast_minutes, 1) + " min",
                    format_fixed(base_minutes, 1) + " min",
                    base.total_stats.total_seconds() > 0 && fast.total_stats.total_seconds() > 0
                        ? format_fixed(base.total_stats.total_seconds() /
                                           fast.total_stats.total_seconds(),
                                       1) + "x"
                        : "N/A",
                    format_fixed(fast.band_max_error, 3)});
  }

  std::cout << render_table({"dots", "pairs", "fast ok", "fast probes",
                             "base probes", "fast time", "base time",
                             "speedup", "fast band err"},
                            rows)
            << "\nExpected shape: both methods scale linearly in N (N-1 "
               "pair scans), with the fast method a constant ~10x cheaper "
               "per pair — hours vs tens of minutes by 8 dots.\n";
  return 0;
}
