// Templated kernel bodies shared by the per-level translation units.
// Instantiated once per Traits; each TU exports the result as a static
// KernelTable (see kernels_scalar.cc / kernels_avx2.cc /
// kernels_avx512.cc).
//
// Every kernel implements the 8-lane deterministic summation order from
// simd.h exactly: main loop over whole kLanes blocks, spill to
// double[kLanes], scalar tail continuing the positional lane
// assignment, then the shared ReduceLanes() tree.
#ifndef SIMRANKPP_UTIL_SIMD_KERNELS_IMPL_H_
#define SIMRANKPP_UTIL_SIMD_KERNELS_IMPL_H_

#include <cstddef>
#include <cstdint>

#include "util/simd/simd.h"
#include "util/simd/simd_traits.h"

namespace simrankpp {
namespace simd {
namespace internal {

template <typename Traits>
double GatherSumImpl(const double* dense, const std::uint32_t* idx,
                     std::size_t n) {
  typename Traits::VecD acc = Traits::Zero();
  std::size_t p = 0;
  for (; p + kLanes <= n; p += kLanes) {
    acc = Traits::Add(acc, Traits::Gather(dense, idx + p));
  }
  double lanes[kLanes];
  Traits::StoreLanes(acc, lanes);
  for (; p < n; ++p) lanes[p % kLanes] += dense[idx[p]];
  return ReduceLanes(lanes);
}

template <typename Traits>
double GatherSumWeightedImpl(const double* dense, const std::uint32_t* idx,
                             const double* w, double scale, std::size_t n) {
  const typename Traits::VecD vscale = Traits::Broadcast(scale);
  typename Traits::VecD acc = Traits::Zero();
  std::size_t p = 0;
  for (; p + kLanes <= n; p += kLanes) {
    const typename Traits::VecD coeff =
        Traits::Mul(vscale, Traits::LoadU(w + p));
    const typename Traits::VecD gathered = Traits::Gather(dense, idx + p);
    acc = Traits::Add(acc, Traits::Mul(coeff, gathered));
  }
  double lanes[kLanes];
  Traits::StoreLanes(acc, lanes);
  for (; p < n; ++p) lanes[p % kLanes] += (scale * w[p]) * dense[idx[p]];
  return ReduceLanes(lanes);
}

template <typename Traits>
void AxpyImpl(double a, const double* x, double* y, std::size_t n) {
  const typename Traits::VecD va = Traits::Broadcast(a);
  std::size_t p = 0;
  for (; p + kLanes <= n; p += kLanes) {
    const typename Traits::VecD vx = Traits::LoadU(x + p);
    const typename Traits::VecD vy = Traits::LoadU(y + p);
    Traits::StoreU(Traits::Add(vy, Traits::Mul(va, vx)), y + p);
  }
  for (; p < n; ++p) y[p] += a * x[p];
}

template <typename Traits>
void PearsonAccumulateImpl(const double* w1, const double* w2, std::size_t n,
                           double mean1, double mean2, double* num,
                           double* den1, double* den2) {
  const typename Traits::VecD vm1 = Traits::Broadcast(mean1);
  const typename Traits::VecD vm2 = Traits::Broadcast(mean2);
  typename Traits::VecD acc_num = Traits::Zero();
  typename Traits::VecD acc_d1 = Traits::Zero();
  typename Traits::VecD acc_d2 = Traits::Zero();
  std::size_t p = 0;
  for (; p + kLanes <= n; p += kLanes) {
    const typename Traits::VecD d1 = Traits::Sub(Traits::LoadU(w1 + p), vm1);
    const typename Traits::VecD d2 = Traits::Sub(Traits::LoadU(w2 + p), vm2);
    acc_num = Traits::Add(acc_num, Traits::Mul(d1, d2));
    acc_d1 = Traits::Add(acc_d1, Traits::Mul(d1, d1));
    acc_d2 = Traits::Add(acc_d2, Traits::Mul(d2, d2));
  }
  double lanes_num[kLanes];
  double lanes_d1[kLanes];
  double lanes_d2[kLanes];
  Traits::StoreLanes(acc_num, lanes_num);
  Traits::StoreLanes(acc_d1, lanes_d1);
  Traits::StoreLanes(acc_d2, lanes_d2);
  for (; p < n; ++p) {
    const double d1 = w1[p] - mean1;
    const double d2 = w2[p] - mean2;
    lanes_num[p % kLanes] += d1 * d2;
    lanes_d1[p % kLanes] += d1 * d1;
    lanes_d2[p % kLanes] += d2 * d2;
  }
  *num = ReduceLanes(lanes_num);
  *den1 = ReduceLanes(lanes_d1);
  *den2 = ReduceLanes(lanes_d2);
}

/// Builds the exported table for one Traits instantiation.
template <typename Traits>
KernelTable MakeKernelTable() {
  KernelTable table;
  table.name = Traits::kName;
  table.gather_sum = &GatherSumImpl<Traits>;
  table.gather_sum_weighted = &GatherSumWeightedImpl<Traits>;
  table.axpy = &AxpyImpl<Traits>;
  table.pearson_accumulate = &PearsonAccumulateImpl<Traits>;
  table.count_common_sorted = &Traits::CountCommonSorted;
  return table;
}

}  // namespace internal
}  // namespace simd
}  // namespace simrankpp

#endif  // SIMRANKPP_UTIL_SIMD_KERNELS_IMPL_H_
