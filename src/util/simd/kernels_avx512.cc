// AVX-512 kernel level. Compiled with -mavx512f -ffp-contract=off when
// the compiler supports it; otherwise the getter returns nullptr and
// dispatch clamps to AVX2 or scalar. -ffp-contract=off is load-bearing
// here: the AVX-512F instruction set includes FMA, and without it the
// compiler would contract the mul+add pairs.
#include "util/simd/simd.h"

#if defined(__AVX512F__)
#include "util/simd/kernels_impl.h"
#endif

namespace simrankpp {
namespace simd {
namespace internal {

#if defined(__AVX512F__)
namespace {

const KernelTable kAvx512Table = MakeKernelTable<Avx512Traits>();

}  // namespace

const KernelTable* Avx512Kernels() { return &kAvx512Table; }
#else
const KernelTable* Avx512Kernels() { return nullptr; }
#endif

}  // namespace internal
}  // namespace simd
}  // namespace simrankpp
