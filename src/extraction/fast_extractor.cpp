#include "extraction/fast_extractor.hpp"

#include "common/stopwatch.hpp"
#include "extraction/postprocess.hpp"
#include "probe/driver/batch_pipeline.hpp"
#include "probe/probe_cache.hpp"

#include <algorithm>

namespace qvg {

FastExtractionResult run_fast_extraction(CurrentSource& source,
                                         const VoltageAxis& x_axis,
                                         const VoltageAxis& y_axis,
                                         const FastExtractorOptions& opt,
                                         const AcquisitionContext& context) {
  FastExtractionResult result;
  Stopwatch wall;
  const double sim_start = source.clock().elapsed_seconds();

  ProbeCache cache(source, std::min(x_axis.step(), y_axis.step()));
  // Anchor scans probe O(width + height) pixels and the triangle sweeps a
  // band around each transition line; a handful of rows' worth of capacity
  // covers the typical 4-17% unique-probe fraction without rehashing.
  cache.reserve((x_axis.count() + y_axis.count()) * 8);

  // One acquisition lane for the whole job, wrapped around the cache. Every
  // stage waits or aborts its batches before returning, so the cache
  // statistics finish() reads cover every executed batch.
  ProbeLane lane(cache, context);

  auto finish = [&](Status status) {
    result.status = std::move(status);
    result.stats.unique_probes = cache.unique_probe_count();
    result.stats.total_requests = cache.probe_count();
    result.stats.simulated_seconds =
        source.clock().elapsed_seconds() - sim_start;
    result.stats.compute_seconds = wall.elapsed_seconds();
    result.probe_log = cache.probe_log();
    return result;
  };
  // Stage 1: anchor preprocessing (§4.4). The context threads through and
  // is checked before every anchor probe batch (including once on entry),
  // so a pre-cancelled job stops with zero probes.
  auto anchors =
      find_anchor_points(lane.get(), x_axis, y_axis, opt.anchors, context);
  if (!anchors) return finish(anchors.status());
  result.anchors = std::move(anchors).value();

  // Stage 2: triangle sweeps (§4.3.2, Algorithm 3), context checked between
  // stages and segment batches; the budget counts requests on the cache (the
  // interface the pipeline drives).
  if (Status s = context.check("sweeps", cache.probe_count()); !s.ok())
    return finish(std::move(s));
  SweepOptions sweep_opt = opt.sweep;
  sweep_opt.run_row_sweep = opt.enable_row_sweep;
  sweep_opt.run_col_sweep = opt.enable_col_sweep;
  result.sweeps =
      run_sweeps(lane.get(), x_axis, y_axis, result.anchors.anchor_a,
                 result.anchors.anchor_b, sweep_opt, context);
  if (!result.sweeps.status.ok()) return finish(result.sweeps.status);
  std::vector<Pixel> raw_points;
  if (opt.enable_row_sweep)
    for (const auto& p : result.sweeps.row_points) raw_points.push_back(p.pixel);
  if (opt.enable_col_sweep)
    for (const auto& p : result.sweeps.col_points) raw_points.push_back(p.pixel);
  if (raw_points.size() < 3)
    return finish(Status::failure(ErrorCode::kInsufficientPoints, "sweeps",
                                  "located fewer than 3 transition points"));

  // Stage 3: post-processing filter (Algorithm 3, PostProcess). Probing is
  // done; the remaining stages are compute-only, with one cancel/deadline
  // check before the fit so an expired job reports "fit" as its
  // interruption point. The probe budget is deliberately NOT consulted
  // here: it caps what the job may *issue*, and a run whose final probe
  // batch landed on (or crossed) the budget still gets its fit.
  if (Status s = context.check("fit"); !s.ok()) return finish(std::move(s));
  result.filtered_points = opt.enable_postprocess
                               ? postprocess_transition_points(raw_points)
                               : raw_points;

  // Stage 4: 2-piecewise slope fit (§4.3.3).
  auto fit = fit_piecewise_linear(result.filtered_points,
                                  result.anchors.anchor_a,
                                  result.anchors.anchor_b, opt.fit);
  if (!fit)
    return finish(Status::failure(ErrorCode::kFitFailed, "fit", fit.reason()));
  result.fit = std::move(fit).value();

  // Convert pixel-space slopes and intersection to voltage units.
  const double unit_ratio = y_axis.step() / x_axis.step();
  result.slope_steep = result.fit.slope_steep * unit_ratio;
  result.slope_shallow = result.fit.slope_shallow * unit_ratio;
  result.intersection_voltage = {x_axis.voltage(result.fit.intersection.x),
                                 y_axis.voltage(result.fit.intersection.y)};

  // Stage 5: virtualization matrix (§2.3).
  auto pair =
      virtualization_from_slopes(result.slope_steep, result.slope_shallow);
  if (!pair)
    return finish(Status::failure(ErrorCode::kDegenerateVirtualization,
                                  "virtualization", pair.reason()));
  result.virtual_gates = *pair;

  return finish(Status{});
}

}  // namespace qvg
