// Type-parameterized SIMD traits: one scalar specialization plus AVX2 /
// AVX-512 specializations behind the same static interface, consumed by
// the templated kernel bodies in kernels_impl.h.
//
// A VecD models the 8 virtual lanes of the determinism contract
// (simd.h): element at position p of a block maps to lane p % 8.
//   - ScalarTraits: double[8], plain loops (independent lanes, so any
//     compiler auto-vectorization preserves the exact results).
//   - Avx2Traits:   { __m256d lo /* lanes 0-3 */, hi /* lanes 4-7 */ }.
//   - Avx512Traits: __m512d (lane j = element j).
// StoreLanes() spills in lane order; kernels then run the shared scalar
// ReduceLanes() tree so every level reduces identically.
//
// Kernels use Mul()+Add() and the TUs are compiled with
// -ffp-contract=off so the compiler cannot fuse them. (GCC and Clang
// lower vector intrinsics to generic IR and WILL contract mul+add into
// FMA at -ffp-contract=fast, so that flag is load-bearing for the
// cross-level byte-equality contract.)
//
// This header may only be included from src/util/simd/ translation
// units (raw-intrinsics lint rule).
#ifndef SIMRANKPP_UTIL_SIMD_SIMD_TRAITS_H_
#define SIMRANKPP_UTIL_SIMD_SIMD_TRAITS_H_

#include <cstddef>
#include <cstdint>
#include <utility>

#if defined(__AVX2__) || defined(__AVX512F__)
#include <immintrin.h>
#endif

#include "util/simd/simd.h"

namespace simrankpp {
namespace simd {
namespace internal {

// ---------------------------------------------------------------------------
// Scalar reference level. Also defines the intersection used as the
// tail/cleanup loop by the vector levels.
// ---------------------------------------------------------------------------
struct ScalarTraits {
  static constexpr const char* kName = "scalar";

  struct VecD {
    double lane[kLanes];
  };

  static VecD Zero() {
    VecD v;
    for (std::size_t j = 0; j < kLanes; ++j) v.lane[j] = 0.0;
    return v;
  }
  static VecD Broadcast(double x) {
    VecD v;
    for (std::size_t j = 0; j < kLanes; ++j) v.lane[j] = x;
    return v;
  }
  static VecD LoadU(const double* p) {
    VecD v;
    for (std::size_t j = 0; j < kLanes; ++j) v.lane[j] = p[j];
    return v;
  }
  static VecD Gather(const double* base, const std::uint32_t* idx) {
    VecD v;
    for (std::size_t j = 0; j < kLanes; ++j) v.lane[j] = base[idx[j]];
    return v;
  }
  static VecD Add(VecD a, VecD b) {
    VecD v;
    for (std::size_t j = 0; j < kLanes; ++j) v.lane[j] = a.lane[j] + b.lane[j];
    return v;
  }
  static VecD Sub(VecD a, VecD b) {
    VecD v;
    for (std::size_t j = 0; j < kLanes; ++j) v.lane[j] = a.lane[j] - b.lane[j];
    return v;
  }
  static VecD Mul(VecD a, VecD b) {
    VecD v;
    for (std::size_t j = 0; j < kLanes; ++j) v.lane[j] = a.lane[j] * b.lane[j];
    return v;
  }
  static void StoreLanes(VecD v, double* out) {
    for (std::size_t j = 0; j < kLanes; ++j) out[j] = v.lane[j];
  }
  static void StoreU(VecD v, double* p) { StoreLanes(v, p); }

  /// Classic two-pointer zipper over strictly ascending arrays.
  static std::size_t CountCommonSorted(const std::uint32_t* a, std::size_t na,
                                       const std::uint32_t* b,
                                       std::size_t nb) {
    std::size_t count = 0;
    std::size_t i = 0;
    std::size_t j = 0;
    while (i < na && j < nb) {
      const std::uint32_t av = a[i];
      const std::uint32_t bv = b[j];
      if (av == bv) {
        ++count;
        ++i;
        ++j;
      } else if (av < bv) {
        ++i;
      } else {
        ++j;
      }
    }
    return count;
  }
};

#if defined(__AVX2__)
// ---------------------------------------------------------------------------
// AVX2: two 256-bit halves form the 8 virtual lanes.
// ---------------------------------------------------------------------------
struct Avx2Traits {
  static constexpr const char* kName = "avx2";

  struct VecD {
    __m256d lo;  // lanes 0-3
    __m256d hi;  // lanes 4-7
  };

  static VecD Zero() {
    return {_mm256_setzero_pd(), _mm256_setzero_pd()};
  }
  static VecD Broadcast(double x) {
    const __m256d v = _mm256_set1_pd(x);
    return {v, v};
  }
  static VecD LoadU(const double* p) {
    return {_mm256_loadu_pd(p), _mm256_loadu_pd(p + 4)};
  }
  static VecD Gather(const double* base, const std::uint32_t* idx) {
    const __m128i lo_idx =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(idx));
    const __m128i hi_idx =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(idx + 4));
    // Masked form with an all-ones mask and a zero source: the plain
    // _mm256_i32gather_pd expands to a gather from an *undefined*
    // source register, which GCC 12 flags under -Wmaybe-uninitialized.
    const __m256d zero = _mm256_setzero_pd();
    const __m256d ones = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
    return {_mm256_mask_i32gather_pd(zero, base, lo_idx, ones, 8),
            _mm256_mask_i32gather_pd(zero, base, hi_idx, ones, 8)};
  }
  static VecD Add(VecD a, VecD b) {
    return {_mm256_add_pd(a.lo, b.lo), _mm256_add_pd(a.hi, b.hi)};
  }
  static VecD Sub(VecD a, VecD b) {
    return {_mm256_sub_pd(a.lo, b.lo), _mm256_sub_pd(a.hi, b.hi)};
  }
  static VecD Mul(VecD a, VecD b) {
    return {_mm256_mul_pd(a.lo, b.lo), _mm256_mul_pd(a.hi, b.hi)};
  }
  static void StoreLanes(VecD v, double* out) {
    _mm256_storeu_pd(out, v.lo);
    _mm256_storeu_pd(out + 4, v.hi);
  }
  static void StoreU(VecD v, double* p) { StoreLanes(v, p); }

  /// One cyclic rotation of vb by R+1 lanes, compared against va. The
  /// rotation index vector is a compile-time constant, so every rotation
  /// reads the ORIGINAL vb — independent instructions, no serial
  /// permute latency chain.
  template <std::size_t R>
  static __m256i RotEq(__m256i va, __m256i vb) {
    const __m256i idx = _mm256_setr_epi32(
        (R + 1) & 7, (R + 2) & 7, (R + 3) & 7, (R + 4) & 7, (R + 5) & 7,
        (R + 6) & 7, (R + 7) & 7, (R + 8) & 7);
    return _mm256_cmpeq_epi32(va, _mm256_permutevar8x32_epi32(vb, idx));
  }
  template <std::size_t... R>
  static unsigned AllRotationsEq(__m256i va, __m256i vb,
                                 std::index_sequence<R...>) {
    __m256i eq = _mm256_cmpeq_epi32(va, vb);
    ((eq = _mm256_or_si256(eq, RotEq<R>(va, vb))), ...);
    return static_cast<unsigned>(_mm256_movemask_ps(_mm256_castsi256_ps(eq)));
  }

  /// Block-rotation zipper: an 8-wide block of a is compared against all
  /// 8 cyclic rotations of an 8-wide block of b, then whichever block
  /// holds the smaller maximum advances whole. Strict ascent means each
  /// a value matches at most one b value, so OR-ing the per-rotation
  /// equality masks and popcounting gives the block's match count, and
  /// advancing past a block never skips a match (every later element on
  /// the other side exceeds the retired block's maximum). Per 8 retired
  /// elements this costs 8 branch-free compare+rotate pairs — the win
  /// over the scalar zipper is the absence of its per-element
  /// data-dependent branch, not fewer comparisons.
  static std::size_t CountCommonSorted(const std::uint32_t* a, std::size_t na,
                                       const std::uint32_t* b,
                                       std::size_t nb) {
    std::size_t count = 0;
    std::size_t i = 0;
    std::size_t j = 0;
    while (i + 8 <= na && j + 8 <= nb) {
      const __m256i va =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
      const __m256i vb =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + j));
      count += static_cast<std::size_t>(__builtin_popcount(
          AllRotationsEq(va, vb, std::make_index_sequence<7>{})));
      const std::uint32_t a_max = a[i + 7];
      const std::uint32_t b_max = b[j + 7];
      if (a_max <= b_max) i += 8;
      if (b_max <= a_max) j += 8;
    }
    count += ScalarTraits::CountCommonSorted(a + i, na - i, b + j, nb - j);
    return count;
  }
};
#endif  // __AVX2__

#if defined(__AVX512F__)
// ---------------------------------------------------------------------------
// AVX-512: one 512-bit register holds all 8 lanes.
// ---------------------------------------------------------------------------
struct Avx512Traits {
  static constexpr const char* kName = "avx512";

  using VecD = __m512d;

  static VecD Zero() { return _mm512_setzero_pd(); }
  static VecD Broadcast(double x) { return _mm512_set1_pd(x); }
  static VecD LoadU(const double* p) { return _mm512_loadu_pd(p); }
  static VecD Gather(const double* base, const std::uint32_t* idx) {
    const __m256i vidx =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(idx));
    // Full-mask gather with a zero source, for the same GCC 12
    // -Wmaybe-uninitialized reason as the AVX2 gather above.
    return _mm512_mask_i32gather_pd(_mm512_setzero_pd(),
                                    static_cast<__mmask8>(0xff), vidx, base,
                                    8);
  }
  static VecD Add(VecD a, VecD b) { return _mm512_add_pd(a, b); }
  static VecD Sub(VecD a, VecD b) { return _mm512_sub_pd(a, b); }
  static VecD Mul(VecD a, VecD b) { return _mm512_mul_pd(a, b); }
  static void StoreLanes(VecD v, double* out) { _mm512_storeu_pd(out, v); }
  static void StoreU(VecD v, double* p) { _mm512_storeu_pd(p, v); }

  /// The 8-wide AVX2 block-rotation zipper beats a 16-wide AVX-512 one
  /// on this workload: VPCMPD writes a mask register and competes with
  /// VALIGND for port 5, so the 512-bit variant's 31 port-5 ops per
  /// block throttle below the AVX2 version's port-spread integer
  /// compares (measured ~1.7x slower in bench_perf_kernels). -mavx512f
  /// implies AVX2, so Avx2Traits is always compiled alongside.
  static std::size_t CountCommonSorted(const std::uint32_t* a, std::size_t na,
                                       const std::uint32_t* b,
                                       std::size_t nb) {
    return Avx2Traits::CountCommonSorted(a, na, b, nb);
  }
};
#endif  // __AVX512F__

}  // namespace internal
}  // namespace simd
}  // namespace simrankpp

#endif  // SIMRANKPP_UTIL_SIMD_SIMD_TRAITS_H_
