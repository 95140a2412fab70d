#include "extraction/anchors.hpp"

#include "common/assert.hpp"
#include "extraction/feature_gradient.hpp"
#include "imgproc/kernel.hpp"
#include "probe/driver/batch_pipeline.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace qvg {

namespace {

/// The window-clamped voltage of a (possibly out-of-range) pixel.
Point2 clamped_voltage(const VoltageAxis& x_axis, const VoltageAxis& y_axis,
                       std::ptrdiff_t x, std::ptrdiff_t y) {
  const auto w = static_cast<std::ptrdiff_t>(x_axis.count());
  const auto h = static_cast<std::ptrdiff_t>(y_axis.count());
  const auto cx = std::clamp<std::ptrdiff_t>(x, 0, w - 1);
  const auto cy = std::clamp<std::ptrdiff_t>(y, 0, h - 1);
  return {x_axis.voltage(static_cast<double>(cx)),
          y_axis.voltage(static_cast<double>(cy))};
}

/// One batched mask sweep: build() queues every non-zero mask tap of every
/// centre in the same (centre-major, row-major tap) order the scalar sweep
/// probed them, the caller submits `probes` into `currents`, and reduce()
/// (valid once that batch completed ok) accumulates one weighted response
/// per centre — so a fault-free acquisition is bit-identical to the scalar
/// sweep however submission overlaps.
struct MaskSweep {
  std::vector<Point2> probes;
  std::vector<double> weights;
  std::vector<std::size_t> offsets;  // per-centre start into probes
  std::vector<double> currents;
  std::size_t center_count = 0;

  void build(const VoltageAxis& x_axis, const VoltageAxis& y_axis,
             const Kernel2D& mask, const std::vector<Pixel>& centers) {
    const auto rx = static_cast<std::ptrdiff_t>(mask.width()) / 2;
    const auto ry = static_cast<std::ptrdiff_t>(mask.height()) / 2;
    center_count = centers.size();
    probes.clear();
    weights.clear();
    offsets.clear();
    probes.reserve(centers.size() * mask.width() * mask.height());
    weights.reserve(probes.capacity());
    offsets.reserve(centers.size() + 1);
    for (const Pixel& center : centers) {
      offsets.push_back(probes.size());
      for (std::size_t my = 0; my < mask.height(); ++my) {
        for (std::size_t mx = 0; mx < mask.width(); ++mx) {
          const double w = mask(mx, my);
          if (w == 0.0) continue;
          probes.push_back(clamped_voltage(
              x_axis, y_axis, center.x + static_cast<std::ptrdiff_t>(mx) - rx,
              center.y + static_cast<std::ptrdiff_t>(my) - ry));
          weights.push_back(w);
        }
      }
    }
    offsets.push_back(probes.size());
    currents.resize(probes.size());
  }

  void reduce(std::vector<double>& responses) const {
    responses.assign(center_count, 0.0);
    for (std::size_t i = 0; i < center_count; ++i) {
      double acc = 0.0;
      for (std::size_t k = offsets[i]; k < offsets[i + 1]; ++k)
        acc += weights[k] * currents[k];
      responses[i] = acc;
    }
  }
};

/// Gaussian prior over [0, n), centred at the sweep *start* with
/// sigma = fraction * n. The sweep starts inside the empty (0,0) region, so
/// the first transition line encountered is the wanted one; the decaying
/// prior suppresses the (equally sharp) second-electron lines farther out.
std::vector<double> gaussian_prior(std::size_t n, double sigma_fraction) {
  std::vector<double> prior(n, 1.0);
  if (n < 2) return prior;
  const double sigma = std::max(sigma_fraction * static_cast<double>(n), 1e-9);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) / sigma;
    prior[i] = std::exp(-0.5 * t * t);
  }
  return prior;
}

Status anchor_failure(std::string detail) {
  return Status::failure(ErrorCode::kAnchorNotFound, "anchors",
                         std::move(detail));
}

/// Prior-weighted argmax of a response array.
std::size_t weighted_argmax(const std::vector<double>& responses,
                            const std::vector<double>& prior) {
  std::size_t best = 0;
  double best_value = -1e300;
  for (std::size_t i = 0; i < responses.size(); ++i) {
    const double v = responses[i] * prior[i];
    if (v > best_value) {
      best_value = v;
      best = i;
    }
  }
  return best;
}

/// The candidate offset whose gradient is largest (the first on ties).
int best_offset(std::span<const double> gradients,
                const std::vector<int>& offsets) {
  int best = 0;
  double best_g = -1e300;
  for (std::size_t i = 0; i < offsets.size(); ++i) {
    if (gradients[i] > best_g) {
      best_g = gradients[i];
      best = offsets[i];
    }
  }
  return best;
}

}  // namespace

Result<AnchorResult> find_anchor_points(AsyncCurrentSource& driver,
                                        const VoltageAxis& x_axis,
                                        const VoltageAxis& y_axis,
                                        const AnchorOptions& opt,
                                        const AcquisitionContext& context) {
  const auto w = static_cast<std::ptrdiff_t>(x_axis.count());
  const auto h = static_cast<std::ptrdiff_t>(y_axis.count());
  if (w < 12 || h < 12)
    return anchor_failure("scan window too small for anchor preprocessing");
  QVG_EXPECTS(opt.num_diagonal_points >= 2);

  // The batch buffers outlive the pipeline, which aborts whatever an early
  // return leaves in flight.
  std::vector<Point2> diagonal_probes;
  std::vector<double> diagonal_currents;
  MaskSweep sweep_x;
  MaskSweep sweep_y;
  FeatureGradientBatch snap_a;
  FeatureGradientBatch snap_b;
  // One check before every batch. Batches that do not depend on each other
  // (the two mask sweeps, the two snap scans) go out back to back while the
  // pipeline has room, so at depth >= 2 the transport overlaps them; at
  // depth 1 the second is submitted after the check that gates it. The
  // checks see completion-carried probe counts either way, so an
  // uninterrupted run is bit-identical at any depth.
  BatchPipeline pipeline(driver, context, "anchors");

  AnchorResult result;

  // 1. Diagonal probe: ten equally spaced points (one batched request), find
  //    the brightest. Everything downstream depends on it.
  if (Status interrupt = pipeline.check(); !interrupt.ok()) return interrupt;
  const int nd = opt.num_diagonal_points;
  std::vector<Pixel> diagonal;
  diagonal.reserve(static_cast<std::size_t>(nd));
  diagonal_probes.reserve(static_cast<std::size_t>(nd));
  for (int k = 0; k < nd; ++k) {
    const double frac = static_cast<double>(k) / static_cast<double>(nd - 1);
    const auto px = static_cast<std::ptrdiff_t>(
        std::llround(frac * static_cast<double>(w - 1)));
    const auto py = static_cast<std::ptrdiff_t>(
        std::llround(frac * static_cast<double>(h - 1)));
    diagonal.push_back({static_cast<int>(px), static_cast<int>(py)});
    diagonal_probes.push_back(clamped_voltage(x_axis, y_axis, px, py));
  }
  diagonal_currents.resize(diagonal_probes.size());
  pipeline.submit(diagonal_probes, diagonal_currents);
  if (Status failed = pipeline.complete().status; !failed.ok()) return failed;
  Pixel brightest{0, 0};
  double brightest_current = -1e300;
  for (std::size_t k = 0; k < diagonal.size(); ++k) {
    if (diagonal_currents[k] > brightest_current) {
      brightest_current = diagonal_currents[k];
      brightest = diagonal[k];
    }
  }

  // 2. Starting point: brightest diagonal point or the 10%-width/height
  //    point, whichever is farther from the lower-left corner.
  const Pixel fallback{
      static_cast<int>(std::llround(opt.start_fraction * static_cast<double>(w - 1))),
      static_cast<int>(std::llround(opt.start_fraction * static_cast<double>(h - 1)))};
  const Pixel origin{0, 0};
  result.start =
      distance(brightest, origin) >= distance(fallback, origin) ? brightest
                                                                : fallback;

  // 3. Mask sweeps with a Gaussian prior. Both depend only on the starting
  //    point.
  const std::ptrdiff_t x_lo = result.start.x;
  const std::ptrdiff_t x_hi = w - 1;
  if (x_hi <= x_lo) return anchor_failure("empty Mask_x sweep range");
  if (Status interrupt = pipeline.check(); !interrupt.ok()) return interrupt;

  {
    const auto n = static_cast<std::size_t>(x_hi - x_lo + 1);
    std::vector<Pixel> centers(n);
    for (std::size_t i = 0; i < n; ++i)
      centers[i] = {static_cast<int>(x_lo + static_cast<std::ptrdiff_t>(i)),
                    result.start.y};
    sweep_x.build(x_axis, y_axis, paper_mask_x(), centers);
  }
  const std::ptrdiff_t y_lo = result.start.y;
  const std::ptrdiff_t y_hi = h - 1;
  if (y_hi > y_lo) {
    const auto n = static_cast<std::size_t>(y_hi - y_lo + 1);
    std::vector<Pixel> centers(n);
    for (std::size_t i = 0; i < n; ++i)
      centers[i] = {result.start.x,
                    static_cast<int>(y_lo + static_cast<std::ptrdiff_t>(i))};
    sweep_y.build(x_axis, y_axis, paper_mask_y(), centers);
  }

  pipeline.submit(sweep_x.probes, sweep_x.currents);
  if (y_hi > y_lo && pipeline.has_room())
    pipeline.submit(sweep_y.probes, sweep_y.currents);

  // Sweep Mask_x rightward along the starting row: anchor B (steep line).
  if (Status failed = pipeline.complete().status; !failed.ok()) return failed;
  sweep_x.reduce(result.response_x);
  const std::size_t best_x = weighted_argmax(
      result.response_x,
      gaussian_prior(result.response_x.size(), opt.gaussian_sigma_fraction));
  result.anchor_b = {
      static_cast<int>(x_lo + static_cast<std::ptrdiff_t>(best_x)),
      result.start.y};

  // Sweep Mask_y upward along the starting column: anchor A (shallow line).
  if (y_hi <= y_lo) return anchor_failure("empty Mask_y sweep range");
  if (Status interrupt = pipeline.check(); !interrupt.ok()) return interrupt;
  if (pipeline.idle()) pipeline.submit(sweep_y.probes, sweep_y.currents);
  if (Status failed = pipeline.complete().status; !failed.ok()) return failed;
  sweep_y.reduce(result.response_y);
  const std::size_t best_y = weighted_argmax(
      result.response_y,
      gaussian_prior(result.response_y.size(), opt.gaussian_sigma_fraction));
  result.anchor_a = {
      result.start.x,
      static_cast<int>(y_lo + static_cast<std::ptrdiff_t>(best_y))};

  // Snap each anchor to the nearby feature-gradient maximum so the fit's
  // fixed endpoints use the same bright-side pixel convention as the sweeps.
  // The two scans are independent once both anchors are known.
  if (opt.snap_radius > 0) {
    if (Status interrupt = pipeline.check(); !interrupt.ok()) return interrupt;
    std::vector<int> offsets_a;
    for (int dy = -opt.snap_radius; dy <= opt.snap_radius; ++dy) {
      const int y = result.anchor_a.y + dy;
      if (y < 0 || y >= static_cast<int>(h)) continue;
      offsets_a.push_back(dy);
      snap_a.add(x_axis.voltage(static_cast<double>(result.anchor_a.x)),
                 y_axis.voltage(static_cast<double>(y)));
    }
    std::vector<int> offsets_b;
    for (int dx = -opt.snap_radius; dx <= opt.snap_radius; ++dx) {
      const int x = result.anchor_b.x + dx;
      if (x < 0 || x >= static_cast<int>(w)) continue;
      offsets_b.push_back(dx);
      snap_b.add(x_axis.voltage(static_cast<double>(x)),
                 y_axis.voltage(static_cast<double>(result.anchor_b.y)));
    }

    snap_a.submit(pipeline, x_axis.step(), y_axis.step());
    if (pipeline.has_room())
      snap_b.submit(pipeline, x_axis.step(), y_axis.step());

    if (Status failed = pipeline.complete().status; !failed.ok())
      return failed;
    result.anchor_a.y += best_offset(snap_a.reduce(), offsets_a);

    if (Status interrupt = pipeline.check(); !interrupt.ok()) return interrupt;
    if (pipeline.idle()) snap_b.submit(pipeline, x_axis.step(), y_axis.step());
    if (Status failed = pipeline.complete().status; !failed.ok())
      return failed;
    result.anchor_b.x += best_offset(snap_b.reduce(), offsets_b);
  }

  // The anchors must span a valid triangle: A strictly left of and above B.
  if (!(result.anchor_a.x < result.anchor_b.x &&
        result.anchor_a.y > result.anchor_b.y)) {
    return anchor_failure(
        "anchor points do not form a valid critical region (A must be left "
        "of and above B)");
  }
  return result;
}

Result<AnchorResult> find_anchor_points(CurrentSource& source,
                                        const VoltageAxis& x_axis,
                                        const VoltageAxis& y_axis,
                                        const AnchorOptions& opt,
                                        const AcquisitionContext& context) {
  ProbeLane lane(source, context);
  return find_anchor_points(lane.get(), x_axis, y_axis, opt, context);
}

}  // namespace qvg
