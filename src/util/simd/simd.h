// SIMD kernel layer: runtime-dispatched scoring kernels with a scalar
// fallback and a documented deterministic summation order.
//
// Every kernel is implemented at three dispatch levels (scalar, AVX2,
// AVX-512) behind one function-pointer table. The level is picked once
// per process from CPUID, clamped by the SRPP_SIMD environment override
// (scalar|avx2|avx512), and can be overridden programmatically for
// tests via SetSimdLevel().
//
// Determinism contract
// --------------------
// All floating-point reduction kernels accumulate into kLanes = 8
// virtual lanes: the term at position p is added to lane p % 8, in
// ascending p order within each lane. The lanes are then reduced by the
// fixed tree implemented in ReduceLanes():
//
//   m[j] = lane[j] + lane[j+4]   (j = 0..3)
//   total = (m[0] + m[2]) + (m[1] + m[3])
//
// The scalar level keeps 8 explicit partial sums; AVX2 keeps two
// __m256d halves (lanes 0-3 / 4-7); AVX-512 keeps one __m512d. All
// levels spill to a double[8] and run the same scalar reduction tree,
// and the kernel translation units are compiled with -ffp-contract=off
// so no level fuses multiply-add. Result: byte-identical outputs across
// SRPP_SIMD=scalar|avx2|avx512 (pinned by sparse_equivalence_test).
//
// Outside src/util/simd/ no raw intrinsics are allowed (the
// raw-intrinsics lint rule enforces this); callers go through
// KernelTable or the ReduceLanes() helper below.
#ifndef SIMRANKPP_UTIL_SIMD_SIMD_H_
#define SIMRANKPP_UTIL_SIMD_SIMD_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace simrankpp {
namespace simd {

/// \brief Number of virtual accumulation lanes in the deterministic
/// summation order. Position p contributes to lane p % kLanes.
inline constexpr std::size_t kLanes = 8;

enum class SimdLevel : int {
  kScalar = 0,
  kAvx2 = 1,
  kAvx512 = 2,
};

/// \brief Stable lowercase name ("scalar", "avx2", "avx512").
const char* SimdLevelName(SimdLevel level);

/// \brief Parses "scalar" | "avx2" | "avx512" (exact, lowercase).
/// Returns false and leaves *out untouched on anything else.
bool ParseSimdLevel(std::string_view text, SimdLevel* out);

/// \brief Highest level this CPU supports, independent of overrides and
/// of which levels were compiled in.
SimdLevel DetectCpuSimdLevel();

/// \brief True when `level` is both compiled in and supported by the
/// running CPU, i.e. SetSimdLevel(level) would succeed.
bool SimdLevelSupported(SimdLevel level);

/// \brief The level kernels currently dispatch to. Resolved once on
/// first use: min(DetectCpuSimdLevel(), SRPP_SIMD override). An
/// unusable override (unknown string, or a level the CPU/compiler
/// cannot deliver) logs a warning and falls back to the detected level.
SimdLevel ActiveSimdLevel();

/// \brief Forces the dispatch level (tests; cross-level equivalence
/// checks). Returns false without changing anything when the level is
/// not supported on this CPU or was not compiled in.
bool SetSimdLevel(SimdLevel level);

/// \brief One kernel set: a single dispatch level. All reduction kernels
/// follow the determinism contract above.
struct KernelTable {
  /// Level name, e.g. "avx2".
  const char* name;

  /// sum over p of dense[idx[p]]          (8-lane order)
  double (*gather_sum)(const double* dense, const std::uint32_t* idx,
                       std::size_t n);

  /// sum over p of (scale * w[p]) * dense[idx[p]]   (8-lane order; the
  /// parenthesisation is part of the contract)
  double (*gather_sum_weighted)(const double* dense, const std::uint32_t* idx,
                                const double* w, double scale, std::size_t n);

  /// y[p] += a * x[p] for p in [0, n)  (element-wise; bit-identical at
  /// every level)
  void (*axpy)(double a, const double* x, double* y, std::size_t n);

  /// Pearson accumulation over paired weights: writes (not adds)
  ///   *num  = sum (w1[p]-mean1)*(w2[p]-mean2)
  ///   *den1 = sum (w1[p]-mean1)^2
  ///   *den2 = sum (w2[p]-mean2)^2
  /// each in the 8-lane order.
  void (*pearson_accumulate)(const double* w1, const double* w2, std::size_t n,
                             double mean1, double mean2, double* num,
                             double* den1, double* den2);

  /// |a ∩ b| for strictly ascending u32 arrays (no duplicates — the
  /// click graph stores at most one edge per (query, ad) pair).
  std::size_t (*count_common_sorted)(const std::uint32_t* a, std::size_t na,
                                     const std::uint32_t* b, std::size_t nb);
};

/// \brief The table for ActiveSimdLevel().
const KernelTable& ActiveKernels();

/// \brief The table for an explicit level, or nullptr when that level
/// was not compiled in. Does NOT check CPU support — only call through
/// the returned table when SimdLevelSupported(level) holds.
const KernelTable* KernelsFor(SimdLevel level);

/// \brief The fixed lane-reduction tree of the determinism contract.
/// Scalar call sites that accumulate their own double[kLanes] partials
/// (e.g. the sparse engine's binary-search path) must reduce with this
/// exact function to stay bit-identical with the kernel outputs.
inline double ReduceLanes(const double lanes[kLanes]) {
  const double m0 = lanes[0] + lanes[4];
  const double m1 = lanes[1] + lanes[5];
  const double m2 = lanes[2] + lanes[6];
  const double m3 = lanes[3] + lanes[7];
  return (m0 + m2) + (m1 + m3);
}

namespace internal {

// Per-translation-unit entry points. The AVX getters return nullptr
// when the compiler could not target the instruction set (the TU is
// then compiled empty). The scalar table is always present.
const KernelTable* ScalarKernels();
const KernelTable* Avx2Kernels();
const KernelTable* Avx512Kernels();

}  // namespace internal
}  // namespace simd
}  // namespace simrankpp

#endif  // SIMRANKPP_UTIL_SIMD_SIMD_H_
