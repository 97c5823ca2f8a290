// Scalar kernel level — the portable reference every vector level must
// match bit-for-bit. Compiled with -ffp-contract=off like the vector
// TUs so no level fuses multiply-add.
#include "util/simd/kernels_impl.h"

namespace simrankpp {
namespace simd {
namespace internal {
namespace {

const KernelTable kScalarTable = MakeKernelTable<ScalarTraits>();

}  // namespace

const KernelTable* ScalarKernels() { return &kScalarTable; }

}  // namespace internal
}  // namespace simd
}  // namespace simrankpp
