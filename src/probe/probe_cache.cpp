#include "probe/probe_cache.hpp"

#include "common/assert.hpp"
#include "common/rounding.hpp"

#include <algorithm>

namespace qvg {

ProbeCache::ProbeCache(CurrentSource& source, double granularity)
    : source_(source),
      granularity_(granularity),
      source_base_(source.probe_count()) {
  QVG_EXPECTS(granularity > 0.0);
}

void ProbeCache::reserve(std::size_t expected_unique_probes) {
  cache_.reserve(expected_unique_probes);
  log_.reserve(expected_unique_probes);
}

std::uint64_t ProbeCache::quantize(double v) const {
  // Quantize with llround's rule via the inline round_half_away (symmetric
  // around zero — truncation would fold (-0.5g, 0.5g) onto the same key and
  // alias negative-voltage probes), clamp into the 32 bits this half owns in
  // the mixed key, and offset so both halves are non-negative. The clamp
  // happens in double space, before rounding, so extreme voltage/granularity ratios (beyond ±2^31 quanta, or
  // non-finite inputs) saturate at the window edge instead of overflowing
  // one half into the other: distinct probes past the edge may share the
  // boundary key, but they can never alias an unrelated in-window
  // configuration the way the unclamped shift did.
  constexpr double kHalfRange = 2147483648.0;  // 2^31 quanta per side
  double q = v / granularity_;
  if (!(q > -kHalfRange)) q = -kHalfRange;  // also catches NaN
  if (q > kHalfRange - 1.0) q = kHalfRange - 1.0;
  return static_cast<std::uint64_t>(round_half_away(q) + (1LL << 31));
}

std::uint64_t ProbeCache::key_of(double v1, double v2) const {
  return (quantize(v1) << 32) | quantize(v2);
}

double ProbeCache::get_current(double v1, double v2) {
  ++requests_;
  const std::uint64_t key = key_of(v1, v2);
  if (auto it = cache_.find(key); it != cache_.end()) {
    ++hits_;
    return it->second;
  }
  const double current = source_.get_current(v1, v2);
  cache_.emplace(key, current);
  log_.push_back({v1, v2});
  return current;
}

void ProbeCache::resolve_batch(std::span<const Point2> points,
                               std::span<double> out) {
  // Pass 1: resolve hits, collect each new configuration once. A repeat
  // within the batch maps to the first occurrence's miss slot — exactly the
  // configuration the scalar loop would have cached by the time the repeat
  // arrived (and therefore a hit, like the scalar loop would count it).
  // slot >= 0 marks "fill from miss_values_[slot]" in pass 2.
  batch_slot_.assign(points.size(), -1);
  miss_points_.clear();
  miss_keys_.clear();
  pending_.clear();
  for (std::size_t i = 0; i < points.size(); ++i) {
    const std::uint64_t key = key_of(points[i].x, points[i].y);
    if (auto it = cache_.find(key); it != cache_.end()) {
      out[i] = it->second;
      ++hits_;
      continue;
    }
    auto [pit, inserted] = pending_.try_emplace(key, miss_points_.size());
    if (inserted) {
      miss_points_.push_back(points[i]);
      miss_keys_.push_back(key);
    } else {
      ++hits_;
    }
    batch_slot_[i] = static_cast<std::ptrdiff_t>(pit->second);
  }
}

void ProbeCache::commit_misses(std::span<const Point2> points,
                               std::span<double> out) {
  for (std::size_t j = 0; j < miss_points_.size(); ++j) {
    cache_.insert_or_assign(miss_keys_[j], miss_values_[j]);
    log_.push_back(miss_points_[j]);
  }
  // Pass 2: fill the miss-backed outputs.
  for (std::size_t i = 0; i < points.size(); ++i)
    if (batch_slot_[i] >= 0)
      out[i] = miss_values_[static_cast<std::size_t>(batch_slot_[i])];
}

void ProbeCache::get_currents(std::span<const Point2> points,
                              std::span<double> out) {
  QVG_EXPECTS(points.size() == out.size());
  requests_ += static_cast<long>(points.size());
  resolve_batch(points, out);
  if (!miss_points_.empty()) {
    miss_values_.resize(miss_points_.size());
    source_.get_currents(miss_points_, miss_values_);
  }
  commit_misses(points, out);
}

Status ProbeCache::try_get_currents(std::span<const Point2> points,
                                    std::span<double> out) {
  QVG_EXPECTS(points.size() == out.size());
  requests_ += static_cast<long>(points.size());
  resolve_batch(points, out);
  if (!miss_points_.empty()) {
    miss_values_.resize(miss_points_.size());
    if (Status status = source_.try_get_currents(miss_points_, miss_values_);
        !status.ok()) {
      // Failed batch: cache and log nothing (the inner source issued no
      // probes). A drift report means entries probed since the drift began
      // hold shifted-honeycomb values — drop exactly those before the
      // caller's retry re-probes them against the recalibrated source.
      if (status.code() == ErrorCode::kDeviceDrifted)
        invalidate_since_probe(source_.drift_started_at_probe());
      return status;
    }
  }
  commit_misses(points, out);
  return {};
}

std::size_t ProbeCache::invalidate_region(const VoltageRect& region) {
  QVG_EXPECTS(region.x_lo <= region.x_hi && region.y_lo <= region.y_hi);
  const std::uint64_t x_lo = quantize(region.x_lo);
  const std::uint64_t x_hi = quantize(region.x_hi);
  const std::uint64_t y_lo = quantize(region.y_lo);
  const std::uint64_t y_hi = quantize(region.y_hi);
  std::size_t dropped = 0;
  for (auto it = cache_.begin(); it != cache_.end();) {
    const std::uint64_t qx = it->first >> 32;
    const std::uint64_t qy = it->first & 0xffffffffULL;
    if (qx >= x_lo && qx <= x_hi && qy >= y_lo && qy <= y_hi) {
      it = cache_.erase(it);
      ++dropped;
    } else {
      ++it;
    }
  }
  return dropped;
}

std::size_t ProbeCache::invalidate_since_probe(long inner_probe_count) {
  if (inner_probe_count < 0) return 0;
  // The cache is the inner source's only driver, so log_[i] was forwarded at
  // inner probe count source_base_ + i: the stale suffix starts at
  // inner_probe_count - source_base_.
  const long first_long =
      std::max<long>(inner_probe_count - source_base_, 0);
  const auto first = static_cast<std::size_t>(first_long);
  if (first >= log_.size()) return 0;
  VoltageRect region{log_[first].x, log_[first].x, log_[first].y,
                     log_[first].y};
  for (std::size_t i = first + 1; i < log_.size(); ++i) {
    region.x_lo = std::min(region.x_lo, log_[i].x);
    region.x_hi = std::max(region.x_hi, log_[i].x);
    region.y_lo = std::min(region.y_lo, log_[i].y);
    region.y_hi = std::max(region.y_hi, log_[i].y);
  }
  return invalidate_region(region);
}

void ProbeCache::reset_statistics() {
  requests_ = 0;
  hits_ = 0;
  cache_.clear();
  log_.clear();
}

}  // namespace qvg
