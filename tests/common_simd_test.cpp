// Lane-level pinning of the SIMD shim: every Vec operation must be
// bit-identical to the corresponding scalar expression applied per lane,
// on both the native-vector and scalar-fallback backends (the suite runs in
// both CI configurations; the tests are backend-agnostic by design).
#include "common/simd.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

namespace qvg::simd {
namespace {

template <typename V, typename T>
std::vector<T> lanes_of(V v) {
  std::vector<T> out(V::kLanes);
  for (std::size_t i = 0; i < V::kLanes; ++i) out[i] = v[i];
  return out;
}

// Values chosen to exercise rounding: irrational-ish fractions, subnormal
// neighborhoods, negatives, exact powers of two.
const double kA[8] = {1.5, -2.25, 0.1, 3.0e-3, -7.75, 1.0 / 3.0, 1024.0, -0.5};
const double kB[8] = {0.3, 4.5, -0.7, 9.125, 2.0e-2, -1.0 / 7.0, -3.0, 8.0};

TEST(SimdVec, LoadStoreRoundTripsBits) {
  const VecD v = VecD::load(kA);
  double out[VecD::kLanes];
  v.store(out);
  for (std::size_t i = 0; i < VecD::kLanes; ++i) {
    EXPECT_EQ(std::memcmp(&out[i], &kA[i], sizeof(double)), 0) << i;
  }
}

TEST(SimdVec, BroadcastAndZero) {
  const VecD b = VecD::broadcast(3.25);
  const VecD z = VecD::zero();
  for (std::size_t i = 0; i < VecD::kLanes; ++i) {
    EXPECT_EQ(b[i], 3.25);
    EXPECT_EQ(z[i], 0.0);
  }
}

TEST(SimdVec, ArithmeticMatchesScalarPerLane) {
  const VecD a = VecD::load(kA);
  const VecD b = VecD::load(kB);
  const VecD sum = a + b;
  const VecD diff = a - b;
  const VecD prod = a * b;
  const VecD quot = a / b;
  for (std::size_t i = 0; i < VecD::kLanes; ++i) {
    EXPECT_EQ(sum[i], kA[i] + kB[i]) << i;
    EXPECT_EQ(diff[i], kA[i] - kB[i]) << i;
    EXPECT_EQ(prod[i], kA[i] * kB[i]) << i;
    EXPECT_EQ(quot[i], kA[i] / kB[i]) << i;
  }
}

TEST(SimdVec, CompoundAssignmentMatchesScalar) {
  VecD acc = VecD::load(kA);
  acc += VecD::load(kB);
  acc *= VecD::broadcast(1.0 / 3.0);
  acc -= VecD::load(kA);
  for (std::size_t i = 0; i < VecD::kLanes; ++i) {
    double s = kA[i];
    s += kB[i];
    s *= 1.0 / 3.0;
    s -= kA[i];
    EXPECT_EQ(acc[i], s) << i;
  }
}

TEST(SimdVec, MulAddChainMatchesScalarAssociation) {
  // The convolution inner loop's exact shape: acc += w * x, repeated. Any
  // reassociation or contraction difference between backends would show here.
  VecD acc = VecD::zero();
  const double w[3] = {0.25, -1.0 / 3.0, 5.5};
  for (const double* row : {kA, kB})
    for (double wi : w) acc += VecD::broadcast(wi) * VecD::load(row);
  for (std::size_t i = 0; i < VecD::kLanes; ++i) {
    double s = 0.0;
    for (const double* row : {kA, kB})
      for (double wi : w) s += wi * row[i];
    EXPECT_EQ(acc[i], s) << i;
  }
}

TEST(SimdVec, MathHelpersMatchScalarPerLane) {
  const VecD a = VecD::load(kA);
  const VecD b = VecD::load(kB);
  const VecD sq = sqrt(a * a + b * b);
  const VecD fl = floor(a / b);
  const VecD mn = min(a, b);
  const VecD mx = max(a, b);
  for (std::size_t i = 0; i < VecD::kLanes; ++i) {
    EXPECT_EQ(sq[i], std::sqrt(kA[i] * kA[i] + kB[i] * kB[i])) << i;
    EXPECT_EQ(fl[i], std::floor(kA[i] / kB[i])) << i;
    EXPECT_EQ(mn[i], std::min(kA[i], kB[i])) << i;
    EXPECT_EQ(mx[i], std::max(kA[i], kB[i])) << i;
  }
}

TEST(SimdVec, MinMaxKeepStdTieSemantics) {
  // std::min(a, b) returns a when equal; std::max(a, b) returns a when equal.
  // Pin with signed zeros, which compare equal but differ in bits.
  const VecD pz = VecD::broadcast(0.0);
  const VecD nz = VecD::broadcast(-0.0);
  EXPECT_TRUE(std::signbit(std::min(0.0, -0.0)) ==
              std::signbit(min(pz, nz)[0]));
  EXPECT_TRUE(std::signbit(std::max(0.0, -0.0)) ==
              std::signbit(max(pz, nz)[0]));
}

TEST(SimdVec, FloatVectorMatchesScalarPerLane) {
  float af[VecF::kLanes];
  float bf[VecF::kLanes];
  for (std::size_t i = 0; i < VecF::kLanes; ++i) {
    af[i] = static_cast<float>(kA[i]);
    bf[i] = static_cast<float>(kB[i]);
  }
  const VecF a = VecF::load(af);
  const VecF b = VecF::load(bf);
  const VecF r = a * b + a - b;
  const VecF sq = sqrt(a * a);
  for (std::size_t i = 0; i < VecF::kLanes; ++i) {
    EXPECT_EQ(r[i], af[i] * bf[i] + af[i] - bf[i]) << i;
    EXPECT_EQ(sq[i], std::sqrt(af[i] * af[i])) << i;
  }
}

TEST(SimdVec, SetAndIndexAgree) {
  VecD v = VecD::zero();
  for (std::size_t i = 0; i < VecD::kLanes; ++i)
    v.set(i, static_cast<double>(i) + 0.5);
  for (std::size_t i = 0; i < VecD::kLanes; ++i)
    EXPECT_EQ(v[i], static_cast<double>(i) + 0.5);
}

TEST(SimdVec, SetGetAndLoadStoreAcrossChunkBoundaries) {
  // Lanes are stored as register-width chunks (two per VecD on SSE2, one
  // under AVX; one scalar each in the fallback): every lane, on both sides
  // of each chunk boundary, must read, write, load and store in place.
  static_assert(VecD::kChunks * VecD::kChunkLanes == VecD::kLanes);
  static_assert(VecF::kChunks * VecF::kChunkLanes == VecF::kLanes);
  double d[VecD::kLanes + 2];
  for (std::size_t i = 0; i < VecD::kLanes + 2; ++i) d[i] = 10.0 + i;
  const VecD vd = VecD::load(d + 1);  // unaligned on purpose
  VecD sd = VecD::zero();
  for (std::size_t i = 0; i < VecD::kLanes; ++i) {
    EXPECT_EQ(vd[i], d[i + 1]) << i;
    sd.set(i, -1.0 - static_cast<double>(i));
  }
  double dout[VecD::kLanes + 2] = {};
  sd.store(dout + 1);
  EXPECT_EQ(dout[0], 0.0);
  EXPECT_EQ(dout[VecD::kLanes + 1], 0.0);
  for (std::size_t i = 0; i < VecD::kLanes; ++i)
    EXPECT_EQ(dout[i + 1], -1.0 - static_cast<double>(i)) << i;

  float f[VecF::kLanes + 2];
  for (std::size_t i = 0; i < VecF::kLanes + 2; ++i) f[i] = 0.5f + i;
  const VecF vf = VecF::load(f + 1);
  VecF sf = VecF::zero();
  for (std::size_t i = 0; i < VecF::kLanes; ++i) {
    EXPECT_EQ(vf[i], f[i + 1]) << i;
    sf.set(i, vf[VecF::kLanes - 1 - i]);  // reverse: crosses every chunk
  }
  float fout[VecF::kLanes + 2] = {};
  sf.store(fout + 1);
  EXPECT_EQ(fout[0], 0.0f);
  EXPECT_EQ(fout[VecF::kLanes + 1], 0.0f);
  for (std::size_t i = 0; i < VecF::kLanes; ++i)
    EXPECT_EQ(fout[i + 1], f[VecF::kLanes - i]) << i;
}

TEST(SimdVec, LaneCountsAreFixed) {
  static_assert(VecD::kLanes == kDoubleLanes);
  static_assert(VecF::kLanes == kFloatLanes);
  static_assert(sizeof(VecD) == kDoubleLanes * sizeof(double));
  static_assert(sizeof(VecD) == 4 * sizeof(double));  // layout is API
  static_assert(sizeof(VecF) == kFloatLanes * sizeof(float));
  SUCCEED();
}

}  // namespace
}  // namespace qvg::simd
