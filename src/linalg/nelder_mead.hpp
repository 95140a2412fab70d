// Nelder-Mead downhill simplex minimizer.
//
// Replaces SciPy's curve_fit in the paper's slope-extraction step (§4.3.3):
// the 2-piece-wise linear model has exactly two free parameters (the
// intersection point), a problem size where Nelder-Mead is robust and
// derivative-free.
//
// Fixed-dimension and header-only: vertices are std::array<double, N> and
// the objective is a template parameter, so an iteration allocates nothing
// and the objective inlines into the simplex loop.
#pragma once

#include "common/assert.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>

namespace qvg {

struct NelderMeadOptions {
  int max_iterations = 500;
  /// Convergence: simplex function-value spread below this.
  double f_tolerance = 1e-10;
  /// Convergence: simplex diameter below this.
  double x_tolerance = 1e-10;
  /// Initial simplex step per coordinate (relative to |x0| + 1).
  double initial_step = 0.05;
  // Standard reflection/expansion/contraction/shrink coefficients.
  double alpha = 1.0;
  double gamma = 2.0;
  double rho = 0.5;
  double sigma = 0.5;
};

template <std::size_t N>
struct NelderMeadResult {
  std::array<double, N> x{};
  double f = 0.0;
  int iterations = 0;
  bool converged = false;
};

/// Minimize f over R^N starting at x0. f is called as
/// f(const std::array<double, N>&) and returns double.
template <std::size_t N, typename F>
[[nodiscard]] NelderMeadResult<N> minimize_nelder_mead(
    F&& f, const std::array<double, N>& x0,
    const NelderMeadOptions& opt = {}) {
  static_assert(N >= 1, "Nelder-Mead needs at least one parameter");
  QVG_EXPECTS(opt.max_iterations > 0);

  using Point = std::array<double, N>;
  struct Vertex {
    Point x;
    double f;
  };
  auto affine = [](const Point& base, const Point& dir, double t) {
    Point out{};
    for (std::size_t d = 0; d < N; ++d) out[d] = base[d] + t * (dir[d] - base[d]);
    return out;
  };

  std::array<Vertex, N + 1> simplex{};
  simplex[0] = {x0, f(x0)};
  for (std::size_t d = 0; d < N; ++d) {
    Point x = x0;
    x[d] += opt.initial_step * (std::abs(x0[d]) + 1.0);
    simplex[d + 1] = {x, f(x)};
  }

  auto by_f = [](const Vertex& a, const Vertex& b) { return a.f < b.f; };
  std::sort(simplex.begin(), simplex.end(), by_f);

  auto diameter = [&simplex] {
    double worst = 0.0;
    for (std::size_t i = 1; i <= N; ++i) {
      double dist = 0.0;
      for (std::size_t d = 0; d < N; ++d) {
        const double delta = simplex[i].x[d] - simplex[0].x[d];
        dist += delta * delta;
      }
      worst = std::max(worst, std::sqrt(dist));
    }
    return worst;
  };

  NelderMeadResult<N> result;
  int iter = 0;
  for (; iter < opt.max_iterations; ++iter) {
    const double spread = simplex[N].f - simplex[0].f;
    if (spread < opt.f_tolerance && diameter() < opt.x_tolerance) {
      result.converged = true;
      break;
    }

    // Centroid of every vertex but the worst.
    Point c{};
    for (std::size_t i = 0; i < N; ++i)
      for (std::size_t d = 0; d < N; ++d) c[d] += simplex[i].x[d];
    for (double& v : c) v /= static_cast<double>(N);
    Vertex& worst = simplex[N];

    // Reflection.
    const Point xr = affine(c, worst.x, -opt.alpha);
    const double fr = f(xr);
    if (fr < simplex[0].f) {
      // Expansion.
      const Point xe = affine(c, worst.x, -opt.gamma);
      const double fe = f(xe);
      worst = fe < fr ? Vertex{xe, fe} : Vertex{xr, fr};
    } else if (fr < simplex[N - 1].f) {
      worst = {xr, fr};
    } else {
      // Contraction (outside if reflected point improved on worst, else inside).
      const bool outside = fr < worst.f;
      const Point xc = affine(c, outside ? xr : worst.x, opt.rho);
      const double fc = f(xc);
      const double bound = outside ? fr : worst.f;
      if (fc < bound) {
        worst = {xc, fc};
      } else {
        // Shrink toward the best vertex.
        for (std::size_t i = 1; i <= N; ++i) {
          simplex[i].x = affine(simplex[0].x, simplex[i].x, opt.sigma);
          simplex[i].f = f(simplex[i].x);
        }
      }
    }
    std::sort(simplex.begin(), simplex.end(), by_f);
  }

  result.x = simplex[0].x;
  result.f = simplex[0].f;
  result.iterations = iter;
  return result;
}

}  // namespace qvg
