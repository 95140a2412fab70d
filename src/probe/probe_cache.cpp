#include "probe/probe_cache.hpp"

#include "common/assert.hpp"
#include "common/rounding.hpp"

#include <algorithm>
#include <bit>

namespace qvg {

namespace {

constexpr std::size_t kMinCapacity = 16;
constexpr auto kKeepAll = [](const auto&) { return true; };

}  // namespace

ProbeCache::ProbeCache(CurrentSource& source, double granularity)
    : source_(source),
      granularity_(granularity),
      source_base_(source.probe_count()) {
  QVG_EXPECTS(granularity > 0.0);
  rebuild(kMinCapacity, kKeepAll);
}

void ProbeCache::reserve(std::size_t expected_unique_probes) {
  std::size_t capacity = slots_.size();
  while (capacity < 2 * expected_unique_probes) capacity *= 2;
  if (capacity != slots_.size())
    rebuild(capacity, kKeepAll);
  log_.reserve(expected_unique_probes);
}

std::size_t ProbeCache::find_slot(std::uint64_t key) const {
  // Fibonacci hashing: the top bits of key * 2^64/phi mix both 32-bit
  // halves, so neighbouring pixels on either axis spread over the table.
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = (key * 0x9E3779B97F4A7C15ULL) >> shift_;;
       i = (i + 1) & mask) {
    const Slot& slot = slots_[i];
    if (slot.state == SlotState::kEmpty || slot.key == key) return i;
  }
}

std::size_t ProbeCache::claim(std::size_t slot, std::uint64_t key) {
  if (2 * (used_ + 1) > slots_.size()) {
    rebuild(2 * slots_.size(), kKeepAll);
    slot = find_slot(key);
  }
  slots_[slot].key = key;
  ++used_;
  return slot;
}

template <typename Keep>
void ProbeCache::rebuild(std::size_t capacity, Keep keep) {
  std::vector<Slot> old(capacity);
  old.swap(slots_);
  shift_ = 64 - std::countr_zero(capacity);
  used_ = 0;
  pending_ = 0;
  for (const Slot& slot : old) {
    if (slot.state == SlotState::kEmpty || !keep(slot)) continue;
    slots_[find_slot(slot.key)] = slot;
    ++used_;
    if (slot.state == SlotState::kPending) ++pending_;
  }
}

void ProbeCache::drop_pending() {
  rebuild(slots_.size(),
          [](const Slot& slot) { return slot.state == SlotState::kCached; });
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
  if (pending_ != 0) drop_pending();  // a batch that threw mid-forward
  ++requests_;
  const std::uint64_t key = key_of(v1, v2);
  std::size_t slot = find_slot(key);
  if (slots_[slot].state == SlotState::kCached) {
    ++hits_;
    return slots_[slot].value;
  }
  const double current = source_.get_current(v1, v2);
  slot = claim(slot, key);
  slots_[slot].value = current;
  slots_[slot].state = SlotState::kCached;
  log_.push_back({v1, v2});
  return current;
}

void ProbeCache::resolve_batch(std::span<const Point2> points,
                               std::span<double> out) {
  // Pass 1: resolve hits, collect each new configuration once. A repeat
  // within the batch finds the first occurrence's pending slot — exactly
  // the configuration the scalar loop would have cached by the time the
  // repeat arrived (and therefore a hit, like the scalar loop would count
  // it). slot >= 0 marks "fill from miss_values_[slot]" in pass 2.
  if (pending_ != 0) drop_pending();  // a batch that threw mid-forward
  batch_slot_.assign(points.size(), -1);
  miss_points_.clear();
  miss_keys_.clear();
  for (std::size_t i = 0; i < points.size(); ++i) {
    const std::uint64_t key = key_of(points[i].x, points[i].y);
    std::size_t slot = find_slot(key);
    if (slots_[slot].state == SlotState::kCached) {
      out[i] = slots_[slot].value;
      ++hits_;
      continue;
    }
    if (slots_[slot].state == SlotState::kPending) {
      ++hits_;
      batch_slot_[i] = static_cast<std::ptrdiff_t>(slots_[slot].miss);
      continue;
    }
    slot = claim(slot, key);
    slots_[slot].miss = static_cast<std::uint32_t>(miss_points_.size());
    slots_[slot].state = SlotState::kPending;
    ++pending_;
    batch_slot_[i] = static_cast<std::ptrdiff_t>(miss_points_.size());
    miss_points_.push_back(points[i]);
    miss_keys_.push_back(key);
  }
}

void ProbeCache::commit_misses(std::span<const Point2> points,
                               std::span<double> out) {
  for (std::size_t j = 0; j < miss_points_.size(); ++j) {
    Slot& slot = slots_[find_slot(miss_keys_[j])];
    slot.value = miss_values_[j];
    slot.state = SlotState::kCached;
    log_.push_back(miss_points_[j]);
  }
  pending_ = 0;
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
      drop_pending();
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
  rebuild(slots_.size(), [&](const Slot& slot) {
    const std::uint64_t qx = slot.key >> 32;
    const std::uint64_t qy = slot.key & 0xffffffffULL;
    const bool inside = slot.state == SlotState::kCached && qx >= x_lo &&
                        qx <= x_hi && qy >= y_lo && qy <= y_hi;
    dropped += inside ? 1 : 0;
    return !inside;
  });
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
  rebuild(slots_.size(), [](const Slot&) { return false; });
  log_.clear();
}

}  // namespace qvg
