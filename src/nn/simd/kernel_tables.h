// Internal to src/nn/simd: the per-tier kernel tables each kernels_*.cc
// exports and dispatch.cc composes. Tables are constant-initialized pointer
// globals — resolving one on an unsupported host executes no code from the
// tier's TU (a kernels_avx2.cc function must never run before CPUID said yes).
//
// A tier that only accelerates a subset of the kernels leaves the rest null;
// dispatch.cc backfills nulls from the scalar table (from the AVX2 table for
// the AVX-512 tier). A tier that is not
// compiled in on this architecture exports nullptr for the whole table.
#ifndef MOCC_SRC_NN_SIMD_KERNEL_TABLES_H_
#define MOCC_SRC_NN_SIMD_KERNEL_TABLES_H_

#include "src/nn/simd/dispatch.h"

namespace mocc {
namespace simd {

// kernels_scalar.cc — complete on every architecture.
extern const Kernels* const kScalarKernelTable;
// kernels_avx2.cc — complete; non-null only on x86.
extern const Kernels* const kAvx2KernelTable;
// kernels_avx2.cc too (functions under an avx512f/dq/vl target attribute) —
// multi-row mat-vec and tanh only, composed over the AVX2 table; non-null
// only on x86.
extern const Kernels* const kAvx512KernelTable;
// kernels_ssse3.cc — int8 GEMV only; non-null only on x86.
extern const Kernels* const kSsse3KernelTable;
// kernels_neon.cc — float32 mat-vec only; non-null only on aarch64.
extern const Kernels* const kNeonKernelTable;

}  // namespace simd
}  // namespace mocc

#endif  // MOCC_SRC_NN_SIMD_KERNEL_TABLES_H_
