// The scalar reference tier: always compiled, always correct, the definition
// of every kernel's bit-exact result (see scalar_kernels.inc for the
// contract). Built with -ffp-contract=off so its codegen cannot drift from the
// source-level fma structure.
#include <cmath>
#include <cstdint>
#include <cstring>

#include "src/nn/simd/kernel_tables.h"

namespace mocc {
namespace simd {
namespace {

#include "src/nn/simd/scalar_kernels.inc"

void ScalarRowMatVecBiasF32(const float* x, const float* w, const float* b,
                            float* y, size_t in, size_t out) {
  RefRowMatVecBias(x, w, b, y, in, out);
}

void ScalarRowMatVecBiasF64(const double* x, const double* w, const double* b,
                            double* y, size_t in, size_t out) {
  RefRowMatVecBias(x, w, b, y, in, out);
}

constexpr Kernels kTable = {
    ScalarRowMatVecBiasF32, ScalarRowMatVecBiasF64, RefRowsMatVec<float>,
    RefRowsMatVec<double>,  RefTanhArrayF32,        RefTanhArrayF64,
    RefInt8QuantizeRow,     RefInt8Gemv,            RefInt8PostTanh,
    RefMatMulUnfusedF64,
};

}  // namespace

const Kernels* const kScalarKernelTable = &kTable;

}  // namespace simd
}  // namespace mocc
