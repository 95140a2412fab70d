#include "extraction/sweep.hpp"

#include "common/assert.hpp"
#include "extraction/feature_gradient.hpp"
#include "probe/driver/batch_pipeline.hpp"

#include <algorithm>
#include <cmath>
#include <span>

namespace qvg {

namespace {

/// Integer pixel range [lo, hi] covered by a continuous span, using pixel
/// centres for the inside test (paper §4.3.2) and clamping to the window.
std::pair<int, int> pixel_range(double span_lo, double span_hi, int window_hi) {
  const int lo = std::max(0, static_cast<int>(std::ceil(span_lo - 1e-9)));
  const int hi = std::min(window_hi, static_cast<int>(std::floor(span_hi + 1e-9)));
  return {lo, hi};
}

}  // namespace

SweepResult run_sweeps(AsyncCurrentSource& driver, const VoltageAxis& x_axis,
                       const VoltageAxis& y_axis, Pixel anchor_a,
                       Pixel anchor_b, const SweepOptions& opt,
                       const AcquisitionContext& context) {
  QVG_EXPECTS(anchor_a.x < anchor_b.x);
  QVG_EXPECTS(anchor_a.y > anchor_b.y);
  const int w = static_cast<int>(x_axis.count());
  const int h = static_cast<int>(y_axis.count());
  QVG_EXPECTS(anchor_b.x < w && anchor_a.y < h);
  QVG_EXPECTS(anchor_a.x >= 0 && anchor_b.y >= 0);

  // One batch per segment: every pixel's Algorithm-2 probes go out as a
  // single submission (same probe order as the scalar loop, so a wrapped
  // ProbeCache sees identical traffic and backends batch the rest). Each
  // segment's argmax moves the anchor shaping the next segment, so segments
  // are submit + wait at any depth: there is nothing to overlap. Before each
  // segment the pipeline checks the context; a stopped sweep keeps the
  // points found so far and reports the typed Status.
  FeatureGradientBatch batch;
  SweepResult result;
  BatchPipeline pipeline(driver, context, "sweeps");

  // Submit + wait one segment batch; on ok, `gradients` holds the reduced
  // per-pixel gradients.
  const auto evaluate_segment = [&](std::span<const double>& gradients) {
    batch.submit(pipeline, x_axis.step(), y_axis.step());
    result.status = pipeline.complete().status;
    if (!result.status.ok()) return false;
    gradients = batch.reduce();
    return true;
  };

  // --- Row-major sweep (bottom -> top), moving anchor B. -----------------
  if (opt.run_row_sweep) {
    const int slack = opt.triangle_slack_pixels;
    TriangleRegion triangle(anchor_a.center(), anchor_b.center());
    for (int row = anchor_b.y + 1; row <= anchor_a.y - 1; ++row) {
      const auto span = triangle.row_span(static_cast<double>(row));
      if (!span) continue;
      result.status = pipeline.check();
      if (!result.status.ok()) return result;
      auto [x_lo, x_hi] =
          pixel_range(span->first - slack, span->second + slack, w - 1);
      // Keep the moving anchor strictly right of the fixed anchor A.
      x_lo = std::max(x_lo, anchor_a.x + 1);
      if (x_lo > x_hi) continue;
      if (opt.max_segment_pixels > 0) {
        const auto limit = static_cast<int>(opt.max_segment_pixels);
        if (x_hi - x_lo + 1 > limit) x_lo = x_hi - limit + 1;
      }

      batch.clear();
      for (int x = x_lo; x <= x_hi; ++x)
        batch.add(x_axis.voltage(x), y_axis.voltage(row));
      std::span<const double> gradients;
      if (!evaluate_segment(gradients)) return result;
      SweepPoint best{{x_lo, row}, -1e300};
      for (int x = x_lo; x <= x_hi; ++x) {
        const double g = gradients[static_cast<std::size_t>(x - x_lo)];
        if (g > best.gradient) best = {{x, row}, g};
      }
      result.row_points.push_back(best);
      int anchor_x = best.pixel.x;
      if (opt.max_anchor_step > 0) {
        const int prev_x = static_cast<int>(triangle.anchor_b().x);
        anchor_x = std::max(anchor_x, prev_x - opt.max_anchor_step);
      }
      triangle.move_anchor_b(
          {static_cast<double>(anchor_x), static_cast<double>(row)});
    }
  }

  // --- Column-major sweep (left -> right), moving anchor A. --------------
  if (opt.run_col_sweep) {
    const int slack = opt.triangle_slack_pixels;
    TriangleRegion triangle(anchor_a.center(), anchor_b.center());
    for (int col = anchor_a.x + 1; col <= anchor_b.x - 1; ++col) {
      const auto span = triangle.col_span(static_cast<double>(col));
      if (!span) continue;
      result.status = pipeline.check();
      if (!result.status.ok()) return result;
      auto [y_lo, y_hi] =
          pixel_range(span->first - slack, span->second + slack, h - 1);
      // Keep the moving anchor strictly above the fixed anchor B.
      y_lo = std::max(y_lo, anchor_b.y + 1);
      if (y_lo > y_hi) continue;
      if (opt.max_segment_pixels > 0) {
        const auto limit = static_cast<int>(opt.max_segment_pixels);
        if (y_hi - y_lo + 1 > limit) y_lo = y_hi - limit + 1;
      }

      batch.clear();
      for (int y = y_lo; y <= y_hi; ++y)
        batch.add(x_axis.voltage(col), y_axis.voltage(y));
      std::span<const double> gradients;
      if (!evaluate_segment(gradients)) return result;
      SweepPoint best{{col, y_lo}, -1e300};
      for (int y = y_lo; y <= y_hi; ++y) {
        const double g = gradients[static_cast<std::size_t>(y - y_lo)];
        if (g > best.gradient) best = {{col, y}, g};
      }
      result.col_points.push_back(best);
      int anchor_y = best.pixel.y;
      if (opt.max_anchor_step > 0) {
        const int prev_y = static_cast<int>(triangle.anchor_a().y);
        anchor_y = std::max(anchor_y, prev_y - opt.max_anchor_step);
      }
      triangle.move_anchor_a(
          {static_cast<double>(col), static_cast<double>(anchor_y)});
    }
  }

  return result;
}

SweepResult run_sweeps(CurrentSource& source, const VoltageAxis& x_axis,
                       const VoltageAxis& y_axis, Pixel anchor_a,
                       Pixel anchor_b, const SweepOptions& opt,
                       const AcquisitionContext& context) {
  ProbeLane lane(source, context);
  return run_sweeps(lane.get(), x_axis, y_axis, anchor_a, anchor_b, opt,
                    context);
}

}  // namespace qvg
