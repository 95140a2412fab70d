// Exact round-half-away-from-zero to an integer, inline.
//
// std::round / std::llround are out-of-line libm calls on the x86-64
// baseline (SSE2 has no rounding instruction; roundsd needs SSE4.1), and the
// pixel path calls them per Hough vote, per playback probe and per
// ProbeCache key. round_half_away gives the same integer as std::llround
// for every input: below 2^52 in magnitude it truncates and corrects by a
// branch-free +-1, and everything else (|x| >= 2^52, where every double is
// already an integer, plus +-inf and NaN) takes std::llround itself.
#pragma once

#include <cmath>

namespace qvg {

[[nodiscard]] inline long long round_half_away(double x) noexcept {
  // 2^52: from here on every double is an integer, and below it the
  // fractional part x - trunc(x) is exact.
  constexpr double kAllIntegral = 4503599627370496.0;
  if (!(std::fabs(x) < kAllIntegral)) return std::llround(x);  // also NaN
  const auto t = static_cast<long long>(x);  // truncates toward zero
  const double frac = x - static_cast<double>(t);
  return t + static_cast<long long>(frac >= 0.5) -
         static_cast<long long>(frac <= -0.5);
}

}  // namespace qvg
