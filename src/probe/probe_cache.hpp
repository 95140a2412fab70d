// Memoizing wrapper around a CurrentSource.
//
// The fast-extraction sweeps evaluate the feature gradient (Algorithm 2) on
// adjacent pixels, so neighbouring evaluations share probes. Like the
// paper's evaluation, which reports *unique* voltage configurations probed,
// the cache ensures each configuration costs dwell time exactly once. It
// also records the probe log used to regenerate Figure 7.
//
// Fault awareness: the cache assumes it is the only driver of its inner
// source, so the inner probe count maps 1:1 onto probe-log indices. When a
// fallible batch fails, nothing from it is cached or logged; when the inner
// source reports kDeviceDrifted, the cache invalidates exactly the entries
// probed since drift_started_at_probe() (their bounding voltage rectangle)
// before propagating the failure, so the retrying caller re-probes only the
// stale region instead of the whole diagram.
//
// The table. Cached values and the misses of the batch in flight live in
// one flat open-addressing table: power-of-two capacity, linear probing
// from a multiplicative hash of the key, grown by doubling past half load
// and sized up front by reserve(). Each slot carries a state byte (empty,
// cached, pending miss) instead of a sentinel key, because every 64-bit key
// is reachable — a probe saturated at +2^31 quanta on both axes keys to all
// ones. A pending slot holds its miss index, so an in-batch repeat resolves
// to the first occurrence's miss; a successful forward turns the batch's
// pending slots into cached ones. Removal (a failed batch's pending slots,
// invalidate_region's scan) rebuilds the table without the dropped slots,
// so a linear-probing chain never breaks; both are rare next to lookups.
#pragma once

#include "common/geometry.hpp"
#include "probe/current_source.hpp"

#include <cstdint>
#include <vector>

namespace qvg {

/// Axis-aligned closed voltage rectangle [x_lo, x_hi] x [y_lo, y_hi]
/// (inclusive on all edges, in volts — the cache quantizes it with the same
/// llround rule as its keys, so a probe exactly on an edge is inside).
struct VoltageRect {
  double x_lo = 0.0;
  double x_hi = 0.0;
  double y_lo = 0.0;
  double y_hi = 0.0;
};

class ProbeCache final : public CurrentSource {
 public:
  /// Wrap an underlying source. `granularity` is the voltage quantum used to
  /// key the cache (pass the pixel size delta of the scan; two requests
  /// within half a quantum are the same configuration). The cache must be
  /// the source's only driver from here on (drift invalidation maps inner
  /// probe counts onto probe-log indices).
  ProbeCache(CurrentSource& source, double granularity);

  /// Pre-size the table and probe log for an expected number of unique
  /// probes (the sweeps know roughly how many pixels they will touch;
  /// reserving up front avoids rehashing mid-extraction).
  void reserve(std::size_t expected_unique_probes);

  double get_current(double v1, double v2) override;

  /// Batched requests resolve against the cache in order; the misses (first
  /// occurrence of each new configuration) are forwarded to the underlying
  /// source as ONE batched call, in the same order the scalar loop would
  /// forward them — so currents, probe log, and statistics are bit-identical
  /// to calling get_current per point, while the backend sees a batch it can
  /// evaluate in parallel.
  void get_currents(std::span<const Point2> points,
                    std::span<double> out) override;

  /// Fallible batched request: hits resolve as usual, misses forward through
  /// the inner source's try_get_currents. On failure nothing from the batch
  /// is cached or logged (the hits already written to `out` are valid values
  /// but the caller must treat the batch as unserved and retry it); a
  /// kDeviceDrifted failure additionally invalidates the stale cache region
  /// before propagating. Note requests/hit statistics do count each attempt,
  /// so retried batches appear once per attempt in probe_count().
  [[nodiscard]] Status try_get_currents(std::span<const Point2> points,
                                        std::span<double> out) override;

  [[nodiscard]] long drift_started_at_probe() const override {
    return source_.drift_started_at_probe();
  }

  [[nodiscard]] SimClock& clock() override { return source_.clock(); }
  [[nodiscard]] const SimClock& clock() const override { return source_.clock(); }

  /// Calls issued to this wrapper (cache hits included).
  [[nodiscard]] long probe_count() const override { return requests_; }

  /// Unique voltage configurations forwarded to the underlying source —
  /// the paper's "number of points probed". After a drift invalidation a
  /// re-probed configuration appears (and costs dwell) again, so this
  /// counts *probes issued*, not distinct configurations ever seen.
  [[nodiscard]] long unique_probe_count() const noexcept {
    return static_cast<long>(log_.size());
  }

  /// Requests actually served from the cache. This is a direct counter, not
  /// the old `requests - unique_probes` derivation: failed fallible batches
  /// and drift invalidations make the derived form over- or under-count
  /// (e.g. a failed batch increments requests without forwarding anything,
  /// which the derivation would book as hits), while the counter only moves
  /// when a request is truly answered from memory.
  [[nodiscard]] long cache_hits() const noexcept { return hits_; }

  /// Fraction of requests served from the cache (0 when nothing was
  /// requested yet).
  [[nodiscard]] double cache_hit_rate() const noexcept {
    return requests_ == 0
               ? 0.0
               : static_cast<double>(hits_) / static_cast<double>(requests_);
  }

  /// Drop every cached configuration inside `region` (inclusive edges,
  /// quantized like the keys). Invalidated entries stay in the probe log —
  /// they were really probed — but subsequent requests for them miss and
  /// re-probe, and cache_hit_rate() keeps honest accounting (hits_ is
  /// untouched; only future hits count). Returns how many entries were
  /// dropped.
  std::size_t invalidate_region(const VoltageRect& region);

  /// Drift recovery: invalidate the bounding rectangle of every log entry
  /// forwarded at inner probe counts >= `inner_probe_count` (the value of
  /// drift_started_at_probe() after a kDeviceDrifted report). Returns the
  /// number of dropped cache entries; 0 when the count is in the future or
  /// negative.
  std::size_t invalidate_since_probe(long inner_probe_count);

  /// Unique probed voltage configurations in probe order (for Figure 7).
  [[nodiscard]] const std::vector<Point2>& probe_log() const noexcept {
    return log_;
  }

  void reset_statistics();

 private:
  /// Mixed 64-bit key: two llround-quantized 32-bit halves, each clamped to
  /// ±2^31 quanta so extreme voltage/granularity ratios saturate instead of
  /// overflowing one half into the other.
  [[nodiscard]] std::uint64_t key_of(double v1, double v2) const;
  [[nodiscard]] std::uint64_t quantize(double v) const;

  /// Pass 1 of a batched request: serve hits into `out`, collect each new
  /// configuration once into the miss scratch. Shared by the infallible and
  /// fallible paths.
  void resolve_batch(std::span<const Point2> points, std::span<double> out);
  /// Commit a successfully forwarded miss batch to the cache and log, then
  /// fill the miss-backed outputs (pass 2).
  void commit_misses(std::span<const Point2> points, std::span<double> out);

  enum class SlotState : std::uint8_t { kEmpty, kCached, kPending };
  struct Slot {
    std::uint64_t key = 0;
    double value = 0.0;          // kCached: the current
    std::uint32_t miss = 0;      // kPending: index into the miss scratch
    SlotState state = SlotState::kEmpty;
  };

  /// The slot holding `key`, or the empty slot where it belongs.
  [[nodiscard]] std::size_t find_slot(std::uint64_t key) const;
  /// Claim the empty slot `slot` for `key` (growing the table first when it
  /// would pass half load); returns the key's slot afterwards.
  std::size_t claim(std::size_t slot, std::uint64_t key);
  /// Rehash every slot `keep` accepts into a table of `capacity` slots.
  template <typename Keep>
  void rebuild(std::size_t capacity, Keep keep);
  /// Forget the pending slots of an unserved batch.
  void drop_pending();

  CurrentSource& source_;
  double granularity_;
  long source_base_ = 0;  // inner probe_count() at construction
  long requests_ = 0;
  long hits_ = 0;
  std::vector<Slot> slots_;  // power-of-two size
  std::size_t used_ = 0;     // non-empty slots
  std::size_t pending_ = 0;  // kPending slots (non-zero only mid-batch)
  int shift_ = 0;            // 64 - log2(slots_.size())
  std::vector<Point2> log_;

  // Reused get_currents scratch (keeps the batched hot path allocation-free
  // at steady state).
  std::vector<std::ptrdiff_t> batch_slot_;
  std::vector<Point2> miss_points_;
  std::vector<std::uint64_t> miss_keys_;
  std::vector<double> miss_values_;
};

}  // namespace qvg
