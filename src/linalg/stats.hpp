// Descriptive statistics: the percentile behind Canny's adaptive thresholds.
#pragma once

#include <vector>

namespace qvg {

/// Linear-interpolated percentile, p in [0, 100].
[[nodiscard]] double percentile(std::vector<double> v, double p);

}  // namespace qvg
