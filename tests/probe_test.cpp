#include "grid/csd.hpp"
#include "probe/playback.hpp"
#include "probe/probe_cache.hpp"
#include "probe/raster.hpp"

#include "common/random.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <map>
#include <utility>
#include <vector>

namespace qvg {
namespace {

Csd ramp_csd() {
  Csd csd(VoltageAxis(0.0, 0.001, 10), VoltageAxis(0.0, 0.001, 10));
  for (std::size_t y = 0; y < 10; ++y)
    for (std::size_t x = 0; x < 10; ++x)
      csd.grid()(x, y) = static_cast<double>(x + 100 * y);
  return csd;
}

TEST(SimClockTest, AccumulatesDwell) {
  SimClock clock(0.050);
  clock.charge_probe();
  clock.charge_probe();
  clock.charge(0.5);
  EXPECT_DOUBLE_EQ(clock.elapsed_seconds(), 0.6);
  clock.reset();
  EXPECT_DOUBLE_EQ(clock.elapsed_seconds(), 0.0);
}

TEST(SimClockTest, NegativeDwellRejected) {
  EXPECT_THROW(SimClock{-1.0}, ContractViolation);
  SimClock clock(0.05);
  EXPECT_THROW(clock.set_dwell_seconds(-0.1), ContractViolation);
}

TEST(PlaybackTest, ReturnsStoredPixel) {
  const Csd csd = ramp_csd();
  CsdPlayback playback(csd);
  EXPECT_DOUBLE_EQ(playback.get_current(0.003, 0.002), 203.0);
  EXPECT_DOUBLE_EQ(playback.get_current(0.0, 0.0), 0.0);
}

TEST(PlaybackTest, NearestNeighbourLookup) {
  const Csd csd = ramp_csd();
  CsdPlayback playback(csd);
  EXPECT_DOUBLE_EQ(playback.get_current(0.0031, 0.0), 3.0);
  EXPECT_DOUBLE_EQ(playback.get_current(0.0036, 0.0), 4.0);
}

TEST(PlaybackTest, ClampsOutsideWindow) {
  const Csd csd = ramp_csd();
  CsdPlayback playback(csd);
  EXPECT_DOUBLE_EQ(playback.get_current(-1.0, -1.0), csd.grid()(0, 0));
  EXPECT_DOUBLE_EQ(playback.get_current(1.0, 1.0), csd.grid()(9, 9));
}

TEST(PlaybackTest, CostsDwellPerProbe) {
  const Csd csd = ramp_csd();
  CsdPlayback playback(csd, 0.050);
  playback.get_current(0.0, 0.0);
  playback.get_current(0.0, 0.0);  // repeated probe still costs (no cache)
  EXPECT_EQ(playback.probe_count(), 2);
  EXPECT_DOUBLE_EQ(playback.clock().elapsed_seconds(), 0.100);
}

TEST(ProbeCacheTest, DeduplicatesConfigurations) {
  const Csd csd = ramp_csd();
  CsdPlayback playback(csd, 0.050);
  ProbeCache cache(playback, 0.001);
  cache.get_current(0.002, 0.003);
  cache.get_current(0.002, 0.003);
  cache.get_current(0.002, 0.003);
  EXPECT_EQ(cache.probe_count(), 3);
  EXPECT_EQ(cache.unique_probe_count(), 1);
  EXPECT_EQ(cache.cache_hits(), 2);
  // Only the unique probe cost dwell time.
  EXPECT_DOUBLE_EQ(playback.clock().elapsed_seconds(), 0.050);
}

TEST(ProbeCacheTest, QuantizesWithinHalfGranule) {
  const Csd csd = ramp_csd();
  CsdPlayback playback(csd);
  ProbeCache cache(playback, 0.001);
  cache.get_current(0.0020, 0.0030);
  cache.get_current(0.00204, 0.00296);  // same pixel after rounding
  EXPECT_EQ(cache.unique_probe_count(), 1);
  cache.get_current(0.0030, 0.0030);  // different pixel
  EXPECT_EQ(cache.unique_probe_count(), 2);
}

TEST(ProbeCacheTest, ProbeLogRecordsOrder) {
  const Csd csd = ramp_csd();
  CsdPlayback playback(csd);
  ProbeCache cache(playback, 0.001);
  cache.get_current(0.001, 0.002);
  cache.get_current(0.004, 0.005);
  cache.get_current(0.001, 0.002);  // cache hit: not logged again
  const auto& log = cache.probe_log();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_DOUBLE_EQ(log[0].x, 0.001);
  EXPECT_DOUBLE_EQ(log[1].y, 0.005);
}

TEST(ProbeCacheTest, ResetStatisticsClearsEverything) {
  const Csd csd = ramp_csd();
  CsdPlayback playback(csd);
  ProbeCache cache(playback, 0.001);
  cache.get_current(0.001, 0.001);
  cache.reset_statistics();
  EXPECT_EQ(cache.probe_count(), 0);
  EXPECT_EQ(cache.unique_probe_count(), 0);
  EXPECT_TRUE(cache.probe_log().empty());
}

TEST(ProbeCacheTest, NegativeVoltagesSupported) {
  Csd csd(VoltageAxis(-0.005, 0.001, 10), VoltageAxis(-0.005, 0.001, 10));
  csd.grid()(0, 0) = 7.0;
  CsdPlayback playback(csd);
  ProbeCache cache(playback, 0.001);
  EXPECT_DOUBLE_EQ(cache.get_current(-0.005, -0.005), 7.0);
  EXPECT_EQ(cache.unique_probe_count(), 1);
}

TEST(ProbeCacheTest, NegativeQuantizationIsSymmetric) {
  // llround keys: +0.7g and -0.7g round to bins +1 and -1. Truncation would
  // fold both onto bin 0 and alias them with the origin.
  Csd csd(VoltageAxis(-0.005, 0.001, 10), VoltageAxis(-0.005, 0.001, 10));
  CsdPlayback playback(csd);
  ProbeCache cache(playback, 0.001);
  cache.get_current(0.0007, 0.0);
  cache.get_current(-0.0007, 0.0);
  cache.get_current(0.0, 0.0);
  EXPECT_EQ(cache.unique_probe_count(), 3);
  // And the symmetric halves stay distinct across both coordinates.
  cache.get_current(0.0, 0.0007);
  cache.get_current(0.0, -0.0007);
  EXPECT_EQ(cache.unique_probe_count(), 5);
}

TEST(ProbeCacheTest, ExtremeVoltageRatiosClampWithoutAliasing) {
  // A voltage/granularity ratio beyond ±2^31 quanta used to overflow the
  // 32-bit key halves (debug-assert only): the high half's overflow bled
  // into the low half, so an extreme probe could alias an unrelated
  // in-window configuration. The fixed key clamps each half at the window
  // edge instead.
  Csd csd(VoltageAxis(-0.005, 0.001, 10), VoltageAxis(-0.005, 0.001, 10));
  CsdPlayback playback(csd);
  ProbeCache cache(playback, 1e-9);  // 64 V = 6.4e10 quanta >> 2^31

  cache.get_current(0.001, 0.001);  // in-window reference configuration
  cache.get_current(64.0, 0.001);   // far past the +2^31-quanta boundary
  cache.get_current(-64.0, 0.001);  // ... and the -2^31 one
  EXPECT_EQ(cache.unique_probe_count(), 3);  // all distinct, no alias

  // Past the boundary the key saturates: configurations beyond the edge
  // deliberately share the boundary bucket (a stale-hit, never an alias of
  // an in-window probe)...
  cache.get_current(128.0, 0.001);
  EXPECT_EQ(cache.unique_probe_count(), 3);
  cache.get_current(0.001, 0.001);
  EXPECT_EQ(cache.unique_probe_count(), 3);  // reference key untouched

  // ...and at the boundary itself: the saturated bucket IS the largest
  // in-range quantum (so `edge` hits the bucket 64.0 clamped into), while
  // one quantum below — and the mirrored negative edge, one quantum inside
  // the negative clamp — keep their own keys.
  const double edge = 2147483647e-9;  // (2^31 - 1) quanta
  cache.get_current(edge, 0.001);
  EXPECT_EQ(cache.unique_probe_count(), 3);
  cache.get_current(edge - 1e-9, 0.001);
  cache.get_current(-edge, 0.001);
  EXPECT_EQ(cache.unique_probe_count(), 5);
}

TEST(ProbeCacheTest, CacheHitRate) {
  const Csd csd = ramp_csd();
  CsdPlayback playback(csd);
  ProbeCache cache(playback, 0.001);
  EXPECT_DOUBLE_EQ(cache.cache_hit_rate(), 0.0);  // no requests yet
  cache.get_current(0.001, 0.001);
  EXPECT_DOUBLE_EQ(cache.cache_hit_rate(), 0.0);
  cache.get_current(0.001, 0.001);
  cache.get_current(0.001, 0.001);
  cache.get_current(0.002, 0.001);
  EXPECT_DOUBLE_EQ(cache.cache_hit_rate(), 0.5);
}

TEST(ProbeCacheTest, ReserveDoesNotChangeAccounting) {
  const Csd csd = ramp_csd();
  CsdPlayback playback(csd);
  ProbeCache cache(playback, 0.001);
  cache.reserve(1024);
  cache.get_current(0.001, 0.002);
  cache.get_current(0.001, 0.002);
  EXPECT_EQ(cache.probe_count(), 2);
  EXPECT_EQ(cache.unique_probe_count(), 1);
  ASSERT_EQ(cache.probe_log().size(), 1u);
  EXPECT_DOUBLE_EQ(cache.probe_log()[0].x, 0.001);
}

TEST(PlaybackTest, ClampsEveryRailAndCorner) {
  // Out-of-window requests rail at the border: all four edges + corners.
  const Csd csd = ramp_csd();  // window [0, 0.009]^2, value x + 100 y
  CsdPlayback playback(csd);
  // Rails (one coordinate out, the other in range).
  EXPECT_DOUBLE_EQ(playback.get_current(-1.0, 0.004), csd.grid()(0, 4));
  EXPECT_DOUBLE_EQ(playback.get_current(1.0, 0.004), csd.grid()(9, 4));
  EXPECT_DOUBLE_EQ(playback.get_current(0.003, -1.0), csd.grid()(3, 0));
  EXPECT_DOUBLE_EQ(playback.get_current(0.003, 1.0), csd.grid()(3, 9));
  // Corners (both coordinates out).
  EXPECT_DOUBLE_EQ(playback.get_current(-1.0, -1.0), csd.grid()(0, 0));
  EXPECT_DOUBLE_EQ(playback.get_current(1.0, -1.0), csd.grid()(9, 0));
  EXPECT_DOUBLE_EQ(playback.get_current(-1.0, 1.0), csd.grid()(0, 9));
  EXPECT_DOUBLE_EQ(playback.get_current(1.0, 1.0), csd.grid()(9, 9));
  // Every clamped probe still costs dwell + a probe count.
  EXPECT_EQ(playback.probe_count(), 8);
}

TEST(PlaybackTest, BatchedMatchesScalarIncludingClamps) {
  const Csd csd = ramp_csd();
  CsdPlayback scalar(csd, 0.050);
  CsdPlayback batched(csd, 0.050);

  const std::vector<Point2> points{
      {0.003, 0.002}, {-1.0, 0.004}, {1.0, 1.0},   {0.0041, 0.0},
      {0.003, 0.002}, {-1.0, -1.0},  {0.009, 1.0}, {0.0, -0.5},
  };
  std::vector<double> scalar_out;
  scalar_out.reserve(points.size());
  for (const auto& p : points) scalar_out.push_back(scalar.get_current(p.x, p.y));

  std::vector<double> batched_out(points.size());
  batched.get_currents(points, batched_out);

  for (std::size_t i = 0; i < points.size(); ++i)
    EXPECT_DOUBLE_EQ(batched_out[i], scalar_out[i]) << "point " << i;
  EXPECT_EQ(batched.probe_count(), scalar.probe_count());
  EXPECT_DOUBLE_EQ(batched.clock().elapsed_seconds(),
                   scalar.clock().elapsed_seconds());
}

TEST(ProbeCacheTest, BatchedMatchesScalarSemantics) {
  const Csd csd = ramp_csd();
  CsdPlayback scalar_playback(csd, 0.050);
  ProbeCache scalar_cache(scalar_playback, 0.001);
  CsdPlayback batched_playback(csd, 0.050);
  ProbeCache batched_cache(batched_playback, 0.001);

  // Mixed batch: fresh configurations, a within-batch repeat, and a repeat
  // of an earlier scalar probe.
  scalar_cache.get_current(0.002, 0.002);
  batched_cache.get_current(0.002, 0.002);
  const std::vector<Point2> points{
      {0.001, 0.001}, {0.004, 0.005}, {0.001, 0.001},
      {0.002, 0.002}, {0.005, 0.001},
  };
  std::vector<double> scalar_out;
  scalar_out.reserve(points.size());
  for (const auto& p : points)
    scalar_out.push_back(scalar_cache.get_current(p.x, p.y));
  std::vector<double> batched_out(points.size());
  batched_cache.get_currents(points, batched_out);

  for (std::size_t i = 0; i < points.size(); ++i)
    EXPECT_DOUBLE_EQ(batched_out[i], scalar_out[i]) << "point " << i;
  EXPECT_EQ(batched_cache.probe_count(), scalar_cache.probe_count());
  EXPECT_EQ(batched_cache.unique_probe_count(),
            scalar_cache.unique_probe_count());
  EXPECT_EQ(batched_cache.cache_hits(), scalar_cache.cache_hits());
  // The underlying source saw only the misses, once each, in order.
  EXPECT_EQ(batched_playback.probe_count(), scalar_playback.probe_count());
  ASSERT_EQ(batched_cache.probe_log().size(), scalar_cache.probe_log().size());
  for (std::size_t i = 0; i < scalar_cache.probe_log().size(); ++i)
    EXPECT_EQ(batched_cache.probe_log()[i], scalar_cache.probe_log()[i]);
}

TEST(ProbeCacheTest, BatchedForwardsMissesAsOneBatch) {
  // 3 unique configurations out of 5 requests: exactly 3 probes reach the
  // backend and the cache replays the rest.
  const Csd csd = ramp_csd();
  CsdPlayback playback(csd, 0.050);
  ProbeCache cache(playback, 0.001);
  const std::vector<Point2> points{
      {0.001, 0.001}, {0.001, 0.001}, {0.002, 0.001},
      {0.003, 0.001}, {0.002, 0.001},
  };
  std::vector<double> out(points.size());
  cache.get_currents(points, out);
  EXPECT_EQ(cache.probe_count(), 5);
  EXPECT_EQ(cache.unique_probe_count(), 3);
  EXPECT_EQ(playback.probe_count(), 3);
  EXPECT_DOUBLE_EQ(playback.clock().elapsed_seconds(), 0.150);
  EXPECT_DOUBLE_EQ(out[0], out[1]);
  EXPECT_DOUBLE_EQ(out[2], out[4]);
}

TEST(RasterTest, AcquiresEveryPixelOnce) {
  const Csd csd = ramp_csd();
  CsdPlayback playback(csd, 0.050);
  const Csd acquired =
      acquire_full_csd(playback, csd.x_axis(), csd.y_axis());
  EXPECT_EQ(playback.probe_count(), 100);
  EXPECT_NEAR(playback.clock().elapsed_seconds(), 5.0, 1e-9);
  EXPECT_EQ(acquired.grid(), csd.grid());
}

TEST(RasterTest, SubWindowAcquisition) {
  const Csd csd = ramp_csd();
  CsdPlayback playback(csd);
  const VoltageAxis sub(0.002, 0.001, 3);
  const Csd acquired = acquire_full_csd(playback, sub, sub);
  EXPECT_EQ(acquired.width(), 3u);
  EXPECT_DOUBLE_EQ(acquired.grid()(0, 0), csd.grid()(2, 2));
}

/// A source whose k-th probe (1-based) reads k + 0.5, so every value names
/// the probe that produced it. try_get_currents can be armed to fail the
/// next batch with a transient or a drift report.
class CountingSource final : public CurrentSource {
 public:
  double get_current(double, double) override {
    clock_.charge_probe();
    return static_cast<double>(++probes_) + 0.5;
  }
  Status try_get_currents(std::span<const Point2> points,
                          std::span<double> out) override {
    if (fail_ != ErrorCode::kOk) {
      const ErrorCode code = std::exchange(fail_, ErrorCode::kOk);
      return Status::failure(code, "counting", "armed");
    }
    get_currents(points, out);
    return {};
  }
  long drift_started_at_probe() const override { return drift_at_; }
  SimClock& clock() override { return clock_; }
  const SimClock& clock() const override { return clock_; }
  long probe_count() const override { return probes_; }

  void fail_next(ErrorCode code, long drift_at = -1) {
    fail_ = code;
    drift_at_ = drift_at;
  }

 private:
  SimClock clock_{0.05};
  long probes_ = 0;
  ErrorCode fail_ = ErrorCode::kOk;
  long drift_at_ = -1;
};

/// The cache's documented semantics on a std::map: llround-quantized keys
/// saturating at +-2^31 quanta, first-occurrence forwarding, hits counted
/// per answered request, drift invalidation of the stale log suffix's
/// bounding rectangle.
struct ReferenceCache {
  double granularity;
  std::map<std::uint64_t, double> values;
  std::vector<Point2> log;
  long requests = 0;
  long hits = 0;
  long inner = 0;  // the source's probe count (0 at construction)

  std::uint64_t quantize(double v) const {
    double q = v / granularity;
    if (!(q > -2147483648.0)) q = -2147483648.0;
    if (q > 2147483647.0) q = 2147483647.0;
    return static_cast<std::uint64_t>(std::llround(q) + (1LL << 31));
  }
  std::uint64_t key(const Point2& p) const {
    return (quantize(p.x) << 32) | quantize(p.y);
  }
  std::size_t invalidate(const VoltageRect& r) {
    std::size_t dropped = 0;
    for (auto it = values.begin(); it != values.end();) {
      const std::uint64_t qx = it->first >> 32, qy = it->first & 0xffffffffULL;
      if (qx >= quantize(r.x_lo) && qx <= quantize(r.x_hi) &&
          qy >= quantize(r.y_lo) && qy <= quantize(r.y_hi)) {
        it = values.erase(it);
        ++dropped;
      } else {
        ++it;
      }
    }
    return dropped;
  }
  /// One batch; `fail` is the armed failure (kOk: none).
  std::vector<double> batch(const std::vector<Point2>& points, ErrorCode fail,
                            long drift_at) {
    requests += static_cast<long>(points.size());
    std::vector<double> out(points.size());
    std::map<std::uint64_t, std::size_t> pending;
    std::vector<std::size_t> from_miss(points.size(), SIZE_MAX);
    std::vector<Point2> misses;
    for (std::size_t i = 0; i < points.size(); ++i) {
      const std::uint64_t k = key(points[i]);
      if (auto it = values.find(k); it != values.end()) {
        out[i] = it->second;
        ++hits;
      } else if (auto pit = pending.find(k); pit != pending.end()) {
        from_miss[i] = pit->second;
        ++hits;
      } else {
        from_miss[i] = misses.size();
        pending.emplace(k, misses.size());
        misses.push_back(points[i]);
      }
    }
    if (fail != ErrorCode::kOk && !misses.empty()) {
      if (fail == ErrorCode::kDeviceDrifted && drift_at >= 0 &&
          static_cast<std::size_t>(drift_at) < log.size()) {
        const auto first = static_cast<std::size_t>(drift_at);
        VoltageRect r{log[first].x, log[first].x, log[first].y, log[first].y};
        for (std::size_t i = first; i < log.size(); ++i) {
          r.x_lo = std::min(r.x_lo, log[i].x);
          r.x_hi = std::max(r.x_hi, log[i].x);
          r.y_lo = std::min(r.y_lo, log[i].y);
          r.y_hi = std::max(r.y_hi, log[i].y);
        }
        invalidate(r);
      }
      return {};
    }
    for (const Point2& m : misses) {
      values[key(m)] = static_cast<double>(++inner) + 0.5;
      log.push_back(m);
    }
    for (std::size_t i = 0; i < points.size(); ++i)
      if (from_miss[i] != SIZE_MAX) out[i] = values[key(misses[from_miss[i]])];
    return out;
  }
};

bool same_point(const Point2& a, const Point2& b) {
  return std::memcmp(&a.x, &b.x, sizeof(double)) == 0 &&
         std::memcmp(&a.y, &b.y, sizeof(double)) == 0;
}

TEST(ProbeCacheTest, MatchesAStdMapReferenceModel) {
  const double g = 0.001;
  CountingSource source;
  ProbeCache cache(source, g);
  cache.reserve(8);  // the sequence grows far past it
  ReferenceCache reference{g};

  // A pool small enough for in-batch duplicates and repeats across
  // batches, plus the saturated keys: +-2^31 quanta, +-inf, NaN and the
  // all-ones key (both halves saturated high).
  std::vector<Point2> pool;
  for (int x = -6; x < 30; ++x)
    for (int y = -4; y < 20; ++y)
      pool.push_back({x * g + 0.0002 * (x % 3), y * g - 0.0004 * (y % 2)});
  const double edge = 2147483648.0 * g;
  for (const double v : {edge, -edge, 4.0 * edge, HUGE_VAL, -HUGE_VAL,
                         std::nan("")}) {
    pool.push_back({v, 0.003});
    pool.push_back({0.002, v});
  }
  pool.push_back({HUGE_VAL, HUGE_VAL});
  pool.push_back({1e300, 4.0 * edge});  // the same all-ones key

  Rng rng(31);
  auto pick = [&] {
    return pool[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(pool.size()) - 1))];
  };
  auto expect_same_state = [&](int step) {
    ASSERT_EQ(cache.probe_count(), reference.requests) << step;
    ASSERT_EQ(cache.cache_hits(), reference.hits) << step;
    ASSERT_EQ(cache.probe_log().size(), reference.log.size()) << step;
    for (std::size_t i = 0; i < reference.log.size(); ++i)
      ASSERT_TRUE(same_point(cache.probe_log()[i], reference.log[i]))
          << step << " log " << i;
  };

  for (int step = 0; step < 240; ++step) {
    const auto roll = rng.uniform_int(0, 19);
    if (roll == 0) {
      VoltageRect r;
      r.x_lo = rng.uniform(-0.006, 0.02);
      r.x_hi = r.x_lo + rng.uniform(0.0, 0.01);
      r.y_lo = rng.uniform(-0.004, 0.015);
      r.y_hi = r.y_lo + rng.uniform(0.0, 0.01);
      ASSERT_EQ(cache.invalidate_region(r), reference.invalidate(r)) << step;
    } else if (step == 200) {
      cache.reset_statistics();
      reference.requests = reference.hits = 0;
      reference.values.clear();
      reference.log.clear();
    } else {
      std::vector<Point2> batch(
          static_cast<std::size_t>(rng.uniform_int(1, 40)));
      for (auto& p : batch) p = pick();
      ErrorCode fail = ErrorCode::kOk;
      long drift_at = -1;
      if (step < 200 && roll == 1) fail = ErrorCode::kProbeTransient;
      if (step < 200 && roll == 2) {
        fail = ErrorCode::kDeviceDrifted;
        drift_at = source.probe_count() -
                   static_cast<long>(rng.uniform_int(0, 30));
      }
      std::vector<double> out(batch.size());
      if (fail == ErrorCode::kOk && roll % 2 == 0) {
        cache.get_currents(batch, out);
      } else {
        // A batch of hits only never reaches the source, so never fails.
        source.fail_next(fail, drift_at);
        const Status status = cache.try_get_currents(batch, out);
        if (!status.ok()) EXPECT_EQ(status.code(), fail) << step;
      }
      const std::vector<double> expected =
          reference.batch(batch, fail, drift_at);
      if (!expected.empty()) {
        for (std::size_t i = 0; i < batch.size(); ++i)
          ASSERT_EQ(out[i], expected[i]) << step << " point " << i;
      }
    }
    expect_same_state(step);
  }
  // Scalar probes through the same table.
  for (int i = 0; i < 200; ++i) {
    const Point2 p = pick();
    const double value = cache.get_current(p.x, p.y);
    ASSERT_EQ(value, reference.batch({p}, ErrorCode::kOk, -1)[0]) << i;
  }
  expect_same_state(-1);
  EXPECT_GT(cache.unique_probe_count(), 100);
}

}  // namespace
}  // namespace qvg
