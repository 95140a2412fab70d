// Sample mean, variance and standard deviation for the tests that check a
// noise process or a filter by its moments.
#pragma once

#include <cmath>
#include <vector>

namespace qvg::testsupport {

inline double mean(const std::vector<double>& v) {
  double acc = 0.0;
  for (double x : v) acc += x;
  return acc / static_cast<double>(v.size());
}

/// Population variance.
inline double variance(const std::vector<double>& v) {
  const double mu = mean(v);
  double acc = 0.0;
  for (double x : v) acc += (x - mu) * (x - mu);
  return acc / static_cast<double>(v.size());
}

inline double stddev(const std::vector<double>& v) {
  return std::sqrt(variance(v));
}

}  // namespace qvg::testsupport
