// Portable fixed-width SIMD shim over compiler vector extensions.
//
// Design rules. Every fast path keeps a scalar reference implementation,
// and a test pins the fast path to it bit for bit on every build:
//
//  * Fixed width, selected at compile time — no runtime dispatch. VecD is
//    always kDoubleLanes doubles and VecF kFloatLanes floats, on every
//    build, with the same memory layout (N consecutive elements). Kernels
//    structure their loops around these constants, so the chunking (and
//    therefore the tail handling) is identical on every backend.
//  * Register-width storage. A Vec is held as register-width chunks: 16 B
//    on the SSE2 baseline, 32 B under __AVX__ (kRegisterBytes). Every
//    operation is unrolled over the chunks at compile time, so a kernel's
//    accumulators live in registers on either target instead of bouncing
//    through the stack, and the lane count never depends on the target.
//  * Bit-identical lanes. Every operation is defined element-wise with the
//    exact IEEE semantics of the corresponding scalar expression. The shim
//    introduces no FMA contraction, and the build pins -ffp-contract=off so
//    neither the shim nor the scalar reference loops contract on FMA-capable
//    targets (-march=x86-64-v3). Callers that keep per-output accumulation
//    order unchanged get results bit-identical to their scalar reference
//    loops — that invariant, not this header, is what the kernel
//    equivalence tests pin.
//  * QVG_NO_SIMD (compile definition, CMake -DQVG_NO_SIMD=ON) or a non-GNU
//    compiler selects the scalar fallback: one scalar per chunk, the same
//    lane count and the same per-lane arithmetic, so ablation builds change
//    performance only, never results.
//
// Math helpers (sqrt / floor / min / max) are deliberately per-lane scalar
// calls: libm is not vectorizable under default errno semantics, and
// per-lane keeps them bit-identical to the scalar reference by construction.
#pragma once

#include <cmath>
#include <cstddef>
#include <utility>

#if !defined(QVG_NO_SIMD) && (defined(__GNUC__) || defined(__clang__))
#define QVG_SIMD_NATIVE 1
#else
#define QVG_SIMD_NATIVE 0
#endif

namespace qvg::simd {

inline constexpr std::size_t kDoubleLanes = 4;
inline constexpr std::size_t kFloatLanes = 8;

/// True when the native vector-extension backend is compiled in (recorded in
/// perfbench's host line so its numbers are attributable).
inline constexpr bool kNative = QVG_SIMD_NATIVE != 0;

/// Bytes in the widest vector register the target has for doubles: 32 under
/// AVX, 16 on the SSE2 baseline (and any other GNU target).
#if defined(__AVX__)
inline constexpr std::size_t kRegisterBytes = 32;
#else
inline constexpr std::size_t kRegisterBytes = 16;
#endif

/// Fixed-width lane vector. T is double or float; N the lane count.
///
/// The lanes are stored as kChunks register-width chunks (lane i lives in
/// chunk i / kChunkLanes), and every operation is an unrolled per-chunk
/// operation. A 32-byte VecD is one ymm register under AVX and two xmm
/// registers on SSE2, so kernel accumulators stay in registers on both; a
/// single 32-byte GNU vector on SSE2 is split by the compiler through a
/// stack slot on every operation. The fallback backend's chunk is one scalar.
template <typename T, std::size_t N>
struct Vec {
  static constexpr std::size_t kLanes = N;
#if QVG_SIMD_NATIVE
  static constexpr std::size_t kChunkLanes =
      N * sizeof(T) < kRegisterBytes ? N : kRegisterBytes / sizeof(T);
  typedef T Chunk __attribute__((vector_size(kChunkLanes * sizeof(T)),
                                 aligned(alignof(T))));
  /// Chunk's may_alias, element-aligned twin: the type the compiler's own
  /// unaligned load/store intrinsics go through, so each is one vector move.
  typedef T Unaligned __attribute__((vector_size(sizeof(Chunk)), may_alias,
                                     aligned(alignof(T))));
#else
  static constexpr std::size_t kChunkLanes = 1;
  using Chunk = T;
  using Unaligned = T;
#endif
  static constexpr std::size_t kChunks = N / kChunkLanes;
  static_assert(kChunks * kChunkLanes == N);
  Chunk c[kChunks];

  /// Unaligned load of N consecutive elements.
  static Vec load(const T* p) noexcept {
    return [&]<std::size_t... K>(std::index_sequence<K...>) {
      return Vec{{load_chunk(p + K * kChunkLanes)...}};
    }(std::make_index_sequence<kChunks>{});
  }
  static Vec broadcast(T x) noexcept {
    Vec r;
    for (std::size_t i = 0; i < N; ++i) r.set(i, x);
    return r;
  }
  static Vec zero() noexcept { return broadcast(T{}); }

  /// Unaligned store of N consecutive elements.
  void store(T* p) const noexcept {
    for (std::size_t k = 0; k < kChunks; ++k)
      *reinterpret_cast<Unaligned*>(p + k * kChunkLanes) = c[k];
  }

#if QVG_SIMD_NATIVE
  T operator[](std::size_t i) const noexcept {
    return c[i / kChunkLanes][i % kChunkLanes];
  }
  void set(std::size_t i, T x) noexcept {
    c[i / kChunkLanes][i % kChunkLanes] = x;
  }
#else
  T operator[](std::size_t i) const noexcept { return c[i]; }
  void set(std::size_t i, T x) noexcept { c[i] = x; }
#endif

  /// One chunk's unaligned load, returned by value: the loaded value goes
  /// straight to a register, never through the chunk array.
  static Chunk load_chunk(const T* p) noexcept {
    return *reinterpret_cast<const Unaligned*>(p);
  }

  /// Applies `op` chunk by chunk, unrolled at compile time, so no chunk
  /// array is ever indexed at run time.
  template <typename Op>
  static Vec zip(const Vec& a, const Vec& b, Op op) noexcept {
    return [&]<std::size_t... K>(std::index_sequence<K...>) {
      return Vec{{op(a.c[K], b.c[K])...}};
    }(std::make_index_sequence<kChunks>{});
  }

  /// Applies the scalar function `f` lane by lane, building each chunk
  /// straight from its lanes' results (no round trip through memory).
  template <typename F>
  static Vec map(const Vec& a, F f) noexcept {
    return [&]<std::size_t... K>(std::index_sequence<K...>) {
      return Vec{{map_chunk(a.c[K], f)...}};
    }(std::make_index_sequence<kChunks>{});
  }
  template <typename F>
  static Chunk map_chunk(Chunk x, F f) noexcept {
#if QVG_SIMD_NATIVE
    return [&]<std::size_t... J>(std::index_sequence<J...>) {
      return Chunk{f(x[J])...};
    }(std::make_index_sequence<kChunkLanes>{});
#else
    return f(x);
#endif
  }

  friend Vec operator+(Vec a, Vec b) noexcept {
    return zip(a, b, [](Chunk x, Chunk y) { return x + y; });
  }
  friend Vec operator-(Vec a, Vec b) noexcept {
    return zip(a, b, [](Chunk x, Chunk y) { return x - y; });
  }
  friend Vec operator*(Vec a, Vec b) noexcept {
    return zip(a, b, [](Chunk x, Chunk y) { return x * y; });
  }
  friend Vec operator/(Vec a, Vec b) noexcept {
    return zip(a, b, [](Chunk x, Chunk y) { return x / y; });
  }
  Vec& operator+=(Vec o) noexcept { return *this = *this + o; }
  Vec& operator-=(Vec o) noexcept { return *this = *this - o; }
  Vec& operator*=(Vec o) noexcept { return *this = *this * o; }
};

using VecD = Vec<double, kDoubleLanes>;
using VecF = Vec<float, kFloatLanes>;

/// Per-lane std::sqrt (bit-identical to the scalar call on each lane).
template <typename T, std::size_t N>
inline Vec<T, N> sqrt(Vec<T, N> a) noexcept {
  return Vec<T, N>::map(a, [](T x) { return std::sqrt(x); });
}

/// Per-lane std::floor.
template <typename T, std::size_t N>
inline Vec<T, N> floor(Vec<T, N> a) noexcept {
  return Vec<T, N>::map(a, [](T x) { return std::floor(x); });
}

/// Per-lane minimum (the `b < a ? b : a` form std::min uses).
template <typename T, std::size_t N>
inline Vec<T, N> min(Vec<T, N> a, Vec<T, N> b) noexcept {
  using Chunk = typename Vec<T, N>::Chunk;
  return Vec<T, N>::zip(a, b, [](Chunk x, Chunk y) { return y < x ? y : x; });
}

/// Per-lane maximum.
template <typename T, std::size_t N>
inline Vec<T, N> max(Vec<T, N> a, Vec<T, N> b) noexcept {
  using Chunk = typename Vec<T, N>::Chunk;
  return Vec<T, N>::zip(a, b, [](Chunk x, Chunk y) { return x < y ? y : x; });
}

}  // namespace qvg::simd
