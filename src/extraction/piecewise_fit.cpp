#include "extraction/piecewise_fit.hpp"

#include "common/assert.hpp"
#include "linalg/nelder_mead.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <string>
#include <utility>

namespace qvg {

namespace {

/// A segment with its per-segment terms hoisted out of the per-point loop.
struct Segment {
  Point2 start;
  Point2 delta;
  double len2;

  Segment(Point2 from, Point2 to)
      : start(from),
        delta(to - from),
        len2(delta.x * delta.x + delta.y * delta.y) {}

  /// Offset from p to its nearest point on the segment.
  [[nodiscard]] Point2 offset(Point2 p) const {
    if (len2 < 1e-300) return p - start;
    double t = ((p.x - start.x) * delta.x + (p.y - start.y) * delta.y) / len2;
    t = std::clamp(t, 0.0, 1.0);
    return {p.x - (start.x + t * delta.x), p.y - (start.y + t * delta.y)};
  }
};

/// Distance to the nearer segment: min of the two hypots, bit for bit, but
/// computing only one of them when the squared norms differ by more than a
/// 1e-9 relative margin. hypot is accurate to ~1 ulp, so a gap that size
/// cannot reorder the two; the normal-range check excludes squares that
/// overflow or underflow.
double path_distance(Point2 p, const Segment& first, const Segment& second) {
  const Point2 d1 = first.offset(p);
  const Point2 d2 = second.offset(p);
  const double q1 = d1.x * d1.x + d1.y * d1.y;
  const double q2 = d2.x * d2.x + d2.y * d2.y;
  if (std::isnormal(q1) && std::isnormal(q2) &&
      std::abs(q1 - q2) > 1e-9 * std::max(q1, q2))
    return q1 < q2 ? std::hypot(d1.x, d1.y) : std::hypot(d2.x, d2.y);
  return std::min(std::hypot(d1.x, d1.y), std::hypot(d2.x, d2.y));
}

/// A rejected fit. The stage is left to the caller, so reason() is `detail`.
Status fit_failure(std::string detail) {
  return Status::failure(ErrorCode::kFitFailed, "", std::move(detail));
}

}  // namespace

double distance_to_path(Point2 p, Point2 a, Point2 vertex, Point2 b) {
  return path_distance(p, Segment(a, vertex), Segment(vertex, b));
}

Result<PiecewiseFit> fit_piecewise_linear(const std::vector<Pixel>& points,
                                          Pixel anchor_a, Pixel anchor_b,
                                          const PiecewiseFitOptions& opt) {
  if (points.size() < 3)
    return fit_failure("piecewise fit needs at least 3 transition points");
  QVG_EXPECTS(anchor_a.x < anchor_b.x);
  QVG_EXPECTS(anchor_a.y > anchor_b.y);

  const Point2 a = anchor_a.center();
  const Point2 b = anchor_b.center();
  std::vector<Point2> centers(points.size());
  std::transform(points.begin(), points.end(), centers.begin(),
                 [](Pixel p) { return p.center(); });

  const double scale =
      static_cast<double>(points.size()) * 100.0;  // dominate residuals
  // Huber loss: quadratic within delta, linear beyond.
  const double delta = opt.huber_delta_px;
  auto loss = [delta](double r) {
    const double ar = std::abs(r);
    if (delta <= 0.0 || ar <= delta) return r * r;
    return 2.0 * delta * ar - delta * delta;
  };

  // Penalized objective: sum of squared residuals, with a quadratic penalty
  // that keeps the intersection strictly inside the anchor box
  // (a.x < px < b.x, b.y < py < a.y).
  auto objective = [&](const std::array<double, 2>& params) {
    const Point2 vertex{params[0], params[1]};
    double penalty = 0.0;
    auto violation = [](double v) { return v > 0.0 ? v * v : 0.0; };
    penalty += violation(a.x + 0.5 - vertex.x);
    penalty += violation(vertex.x - (b.x - 0.5));
    penalty += violation(b.y + 0.5 - vertex.y);
    penalty += violation(vertex.y - (a.y - 0.5));

    double ss = 0.0;
    if (opt.residual == FitResidual::kOrthogonal) {
      const Segment shallow(a, vertex);
      const Segment steep(vertex, b);
      for (const Point2 q : centers) ss += loss(path_distance(q, shallow, steep));
    } else {
      // Vertical residual against the piecewise function y(x). The shallow
      // branch runs from A to the vertex, the steep branch from the vertex
      // to B.
      const double eps = 1e-9;
      const double m1 = (vertex.y - a.y) / std::max(vertex.x - a.x, eps);
      const double m2 = (b.y - vertex.y) / std::max(b.x - vertex.x, eps);
      for (const Point2 q : centers) {
        const double predicted = q.x <= vertex.x
                                     ? a.y + m1 * (q.x - a.x)
                                     : vertex.y + m2 * (q.x - vertex.x);
        ss += loss(q.y - predicted);
      }
    }
    return ss + scale * penalty;
  };

  // Initial guess: inset from the right-angle vertex (b.x, a.y) toward the
  // triangle interior.
  const double inset = opt.initial_inset;
  const std::array<double, 2> x0{b.x - inset * (b.x - a.x),
                                 a.y - inset * (a.y - b.y)};

  NelderMeadOptions nm;
  nm.max_iterations = opt.max_iterations;
  nm.f_tolerance = 1e-12;
  nm.x_tolerance = 1e-9;
  const auto solution = minimize_nelder_mead(objective, x0, nm);

  PiecewiseFit fit;
  fit.intersection = {solution.x[0], solution.x[1]};
  fit.iterations = solution.iterations;

  const double dx_shallow = fit.intersection.x - a.x;
  const double dx_steep = b.x - fit.intersection.x;
  if (dx_shallow < 0.25 || dx_steep < 0.25)
    return fit_failure("fitted intersection collapsed onto an anchor");

  fit.slope_shallow = (fit.intersection.y - a.y) / dx_shallow;
  fit.slope_steep = (b.y - fit.intersection.y) / dx_steep;

  if (!(fit.slope_shallow < 0.0) || !(fit.slope_steep < 0.0))
    return fit_failure("fitted transition lines must both have negative slope");
  if (!(fit.slope_steep < fit.slope_shallow))
    return fit_failure("steep/shallow slope ordering violated by the fit");

  const Segment shallow(a, fit.intersection);
  const Segment steep(fit.intersection, b);
  double ss = 0.0;
  for (const Point2 q : centers) {
    const double d = path_distance(q, shallow, steep);
    ss += d * d;
  }
  fit.rms_residual = std::sqrt(ss / static_cast<double>(points.size()));
  return fit;
}

}  // namespace qvg
