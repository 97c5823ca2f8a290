// AVX2 kernel level. This TU is compiled with -mavx2 -ffp-contract=off
// when the compiler supports those flags; otherwise the getter returns
// nullptr and dispatch clamps to scalar. Contraction off keeps the
// compiler from fusing mul+add into FMA, which keeps the table
// bit-identical with scalar.
#include "util/simd/simd.h"

#if defined(__AVX2__)
#include "util/simd/kernels_impl.h"
#endif

namespace simrankpp {
namespace simd {
namespace internal {

#if defined(__AVX2__)
namespace {

const KernelTable kAvx2Table = MakeKernelTable<Avx2Traits>();

}  // namespace

const KernelTable* Avx2Kernels() { return &kAvx2Table; }
#else
const KernelTable* Avx2Kernels() { return nullptr; }
#endif

}  // namespace internal
}  // namespace simd
}  // namespace simrankpp
