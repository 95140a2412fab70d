#include "imgproc/hough.hpp"

#include "common/assert.hpp"
#include "common/rounding.hpp"
#include "common/simd.hpp"
#include "common/thread_pool.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <utility>

namespace qvg {

std::optional<double> HoughLine::slope() const {
  // Line: x cos(t) + y sin(t) = rho -> y = (rho - x cos t) / sin t.
  const double s = std::sin(theta);
  if (std::abs(s) < 1e-6) return std::nullopt;  // vertical
  return -std::cos(theta) / s;
}

std::optional<double> HoughLine::intercept() const {
  const double s = std::sin(theta);
  if (std::abs(s) < 1e-6) return std::nullopt;
  return rho / s;
}

HoughAccumulator hough_accumulate(const GridU8& edges, const HoughOptions& opt) {
  QVG_EXPECTS(opt.rho_resolution > 0.0);
  QVG_EXPECTS(opt.theta_resolution_deg > 0.0);

  const double diag = std::hypot(static_cast<double>(edges.width()),
                                 static_cast<double>(edges.height()));
  HoughAccumulator acc;
  acc.rho_min = -diag;
  acc.rho_step = opt.rho_resolution;
  acc.theta_step = opt.theta_resolution_deg * std::numbers::pi / 180.0;

  const auto n_rho =
      static_cast<std::size_t>(std::ceil(2.0 * diag / acc.rho_step)) + 1;
  const auto n_theta =
      static_cast<std::size_t>(std::ceil(std::numbers::pi / acc.theta_step));
  acc.votes = Grid2D<int>(n_theta, n_rho, 0);

  // Precompute trig tables.
  std::vector<double> cos_t(n_theta);
  std::vector<double> sin_t(n_theta);
  for (std::size_t t = 0; t < n_theta; ++t) {
    const double theta = acc.theta_of_bin(t);
    cos_t[t] = std::cos(theta);
    sin_t[t] = std::sin(theta);
  }

  // Gather the (usually sparse) edge pixels once. Each theta-parallel chunk
  // owns a disjoint set of theta columns of the accumulator, so both paths
  // below are race-free; integer vote increments commute, so the counts are
  // identical to the serial pixel-major loop in either mode.
  std::vector<std::pair<double, double>> points;
  for (std::size_t y = 0; y < edges.height(); ++y)
    for (std::size_t x = 0; x < edges.width(); ++x)
      if (edges(x, y) != 0)
        points.emplace_back(static_cast<double>(x), static_cast<double>(y));

  if (opt.accumulate_mode == HoughAccumulateMode::kFlat) {
    // Ablation path: point-major over the whole theta chunk. Each point
    // touches a rho bin per theta across the full chunk, so consecutive
    // points stride through ~the whole accumulator — fine for small maps,
    // cache-hostile for large ones.
    parallel_for_rows(n_theta, [&](std::size_t t0, std::size_t t1) {
      for (const auto& [fx, fy] : points) {
        for (std::size_t t = t0; t < t1; ++t) {
          const double rho = fx * cos_t[t] + fy * sin_t[t];
          const auto bin = static_cast<std::ptrdiff_t>(
              round_half_away((rho - acc.rho_min) / acc.rho_step));
          if (bin < 0 || static_cast<std::size_t>(bin) >= n_rho) continue;
          ++acc.votes(t, static_cast<std::size_t>(bin));
        }
      }
    });
    return acc;
  }

  // Blocked path: bucket edge points into kTile x kTile spatial tiles.
  // Points in one tile are within kTile*sqrt(2) pixels of each other, so
  // for a fixed theta their rho values — and hence the accumulator rows they
  // touch — span a window of ~kTile*sqrt(2)/rho_step bins. Sweeping a tile's
  // points before moving on keeps that slab (x the chunk's theta columns)
  // resident in L1/L2 instead of re-streaming the full rho range per point.
  // The inner theta sweep is SIMD over VecD lanes with the identical
  // per-theta expression ((fx*cos + fy*sin - rho_min) / rho_step, then the
  // inline round_half_away per lane, which matches std::round exactly).
  constexpr std::size_t kTile = 64;
  const std::size_t tiles_x = (edges.width() + kTile - 1) / kTile;
  const std::size_t tiles_y = (edges.height() + kTile - 1) / kTile;
  std::vector<std::vector<std::pair<double, double>>> tiles(tiles_x * tiles_y);
  for (const auto& [fx, fy] : points) {
    const auto tx = static_cast<std::size_t>(fx) / kTile;
    const auto ty = static_cast<std::size_t>(fy) / kTile;
    tiles[ty * tiles_x + tx].push_back({fx, fy});
  }

  constexpr std::size_t kLanes = simd::VecD::kLanes;
  const double rho_min = acc.rho_min;
  const double rho_step = acc.rho_step;
  const simd::VecD v_rho_min = simd::VecD::broadcast(rho_min);
  const simd::VecD v_rho_step = simd::VecD::broadcast(rho_step);
  int* votes = acc.votes.raw().data();
  parallel_for_rows(n_theta, [&](std::size_t t0, std::size_t t1) {
    for (const auto& tile : tiles) {
      for (const auto& [fx, fy] : tile) {
        const simd::VecD vx = simd::VecD::broadcast(fx);
        const simd::VecD vy = simd::VecD::broadcast(fy);
        std::size_t t = t0;
        for (; t + kLanes <= t1; t += kLanes) {
          const simd::VecD q = (vx * simd::VecD::load(cos_t.data() + t) +
                                vy * simd::VecD::load(sin_t.data() + t) -
                                v_rho_min) /
                               v_rho_step;
          for (std::size_t l = 0; l < kLanes; ++l) {
            const auto bin = static_cast<std::ptrdiff_t>(round_half_away(q[l]));
            if (bin < 0 || static_cast<std::size_t>(bin) >= n_rho) continue;
            ++votes[static_cast<std::size_t>(bin) * n_theta + (t + l)];
          }
        }
        for (; t < t1; ++t) {
          const double rho = fx * cos_t[t] + fy * sin_t[t];
          const auto bin = static_cast<std::ptrdiff_t>(
              round_half_away((rho - rho_min) / rho_step));
          if (bin < 0 || static_cast<std::size_t>(bin) >= n_rho) continue;
          ++votes[static_cast<std::size_t>(bin) * n_theta + t];
        }
      }
    }
  });
  return acc;
}

std::vector<HoughLine> hough_peaks(const HoughAccumulator& acc,
                                   const HoughOptions& opt) {
  const auto n_theta = acc.votes.width();
  const auto n_rho = acc.votes.height();
  // Locals, not acc.votes(t, r) / opt fields: the scan below pushes to a
  // vector, and through memory the compiler would reload them per cell.
  const int* votes = acc.votes.raw().data();
  const int rho_radius = opt.nms_rho_radius;
  const int theta_radius = opt.nms_theta_radius;

  // Row maxima in one vectorizable pass: they give the adaptive threshold
  // and let the scan skip every row with no cell at or above it (almost all
  // of them: the accumulator is mostly empty).
  std::vector<int> row_max(n_rho, 0);
  for (std::size_t r = 0; r < n_rho; ++r) {
    const int* row = votes + r * n_theta;
    int m = row[0];
    for (std::size_t t = 1; t < n_theta; ++t) m = row[t] > m ? row[t] : m;
    row_max[r] = m;
  }
  int threshold = opt.votes_threshold;
  if (threshold <= 0) {
    const int max_votes =
        std::max(0, *std::max_element(row_max.begin(), row_max.end()));
    threshold = std::max(
        2, static_cast<int>(opt.adaptive_threshold_fraction * max_votes));
  }

  struct Peak {
    std::size_t t;
    std::size_t r;
    int votes;
  };
  std::vector<Peak> peaks;
  for (std::size_t r = 0; r < n_rho; ++r) {
    if (row_max[r] < threshold) continue;
    const int* row = votes + r * n_theta;
    for (std::size_t t = 0; t < n_theta; ++t) {
      const int v = row[t];
      if (v < threshold) continue;
      // Local-maximum test in the NMS window (theta wraps around pi with a
      // rho sign flip; we ignore the wrap here — transition lines sit far
      // from theta = 0/pi after edge detection on negatively sloped lines).
      bool is_max = true;
      for (int dr = -rho_radius; dr <= rho_radius && is_max; ++dr) {
        for (int dt = -theta_radius; dt <= theta_radius; ++dt) {
          if (dr == 0 && dt == 0) continue;
          const auto nr = static_cast<std::ptrdiff_t>(r) + dr;
          const auto nt = static_cast<std::ptrdiff_t>(t) + dt;
          if (nr < 0 || nt < 0 || static_cast<std::size_t>(nr) >= n_rho ||
              static_cast<std::size_t>(nt) >= n_theta)
            continue;
          const int nv = votes[static_cast<std::size_t>(nr) * n_theta +
                               static_cast<std::size_t>(nt)];
          if (nv > v || (nv == v && (dr < 0 || (dr == 0 && dt < 0)))) {
            is_max = false;
            break;
          }
        }
      }
      if (is_max) peaks.push_back({t, r, v});
    }
  }

  std::sort(peaks.begin(), peaks.end(),
            [](const Peak& a, const Peak& b) { return a.votes > b.votes; });
  if (peaks.size() > static_cast<std::size_t>(opt.max_lines))
    peaks.resize(static_cast<std::size_t>(opt.max_lines));

  std::vector<HoughLine> lines;
  lines.reserve(peaks.size());
  for (const auto& p : peaks) {
    HoughLine line;
    line.rho = acc.rho_of_bin(p.r);
    line.theta = acc.theta_of_bin(p.t);
    line.votes = p.votes;
    lines.push_back(line);
  }
  return lines;
}

std::vector<HoughLine> hough_lines(const GridU8& edges, const HoughOptions& opt) {
  return hough_peaks(hough_accumulate(edges, opt), opt);
}

}  // namespace qvg
