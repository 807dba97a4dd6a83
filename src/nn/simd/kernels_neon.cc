// NEON tier (aarch64 baseline): the float32 row and multi-row mat-vecs only —
// the cheap, clearly-winning mirrors. vfmaq_f32 is the same correctly rounded fused op as
// std::fma, per-output chains are untouched by the 4-lane j-blocking, and the
// out==1 dot uses TWO q-register accumulators so its lane split (k ≡ l mod 8)
// and reduction tree are value-identical to the AVX2/scalar 8-lane contract.
// Everything else (f64, tanh, int8) falls back to the scalar reference on
// aarch64 until profiled. On non-ARM builds this TU exports a null table.
#include "src/nn/simd/kernel_tables.h"

#if defined(__aarch64__)

#include <arm_neon.h>

#include <cmath>
#include <cstdint>
#include <cstring>

namespace mocc {
namespace simd {
namespace {

#include "src/nn/simd/scalar_kernels.inc"

// Multi-row f32 mat-vec (RefRowsMatVec mirror): per row, 16- and 4-wide
// column blocks with the accumulators seeded from `seed` (zero when null) and
// the bias add skipped when `b` is null; the wide single-row kernel below is
// its n == 1 case.
template <int NV>  // NV 4-wide column blocks per k-pass
inline void NeonRowsBlock(const float* x, const float* w, const float* seed,
                          const float* b, float* y, size_t in, size_t out,
                          size_t j0) {
  float32x4_t acc[NV];
  for (int v = 0; v < NV; ++v) {
    acc[v] = seed != nullptr ? vld1q_f32(seed + j0 + 4 * v) : vdupq_n_f32(0.0f);
  }
  const float* wp = w + j0;
  for (size_t k = 0; k < in; ++k, wp += out) {
    const float32x4_t xk = vdupq_n_f32(x[k]);
    for (int v = 0; v < NV; ++v) {
      acc[v] = vfmaq_f32(acc[v], xk, vld1q_f32(wp + 4 * v));
    }
  }
  for (int v = 0; v < NV; ++v) {
    float32x4_t r = acc[v];
    if (b != nullptr) {
      r = vaddq_f32(r, vld1q_f32(b + j0 + 4 * v));
    }
    vst1q_f32(y + j0 + 4 * v, r);
  }
}

void NeonRowsMatVecF32(const float* x, size_t x_stride, size_t n, const float* w,
                       const float* seed, const float* b, float* y, size_t y_stride,
                       size_t in, size_t out) {
  for (size_t r = 0; r < n; ++r) {
    const float* xr = x + r * x_stride;
    float* yr = y + r * y_stride;
    size_t j0 = 0;
    for (; j0 + 16 <= out; j0 += 16) NeonRowsBlock<4>(xr, w, seed, b, yr, in, out, j0);
    for (; j0 + 4 <= out; j0 += 4) NeonRowsBlock<1>(xr, w, seed, b, yr, in, out, j0);
    if (j0 < out) {
      RefRowsMatVecCols(xr, x_stride, 1, w, seed, b, yr, y_stride, in, out, j0);
    }
  }
}

void NeonRowMatVecBiasF32(const float* x, const float* w, const float* b, float* y,
                          size_t in, size_t out) {
  if (out == 1) {
    // 8-lane k-split across two q registers; acc0 = lanes 0..3, acc1 = 4..7.
    float32x4_t acc0 = vdupq_n_f32(0.0f);
    float32x4_t acc1 = vdupq_n_f32(0.0f);
    size_t k = 0;
    for (; k + 8 <= in; k += 8) {
      acc0 = vfmaq_f32(acc0, vld1q_f32(x + k), vld1q_f32(w + k));
      acc1 = vfmaq_f32(acc1, vld1q_f32(x + k + 4), vld1q_f32(w + k + 4));
    }
    // Tree: (a0+a4 .. a3+a7) -> (s0+s2, s1+s3) -> t0+t1, matching the scalar
    // reference and the AVX2 extract/movehl/shuffle sequence.
    const float32x4_t s = vaddq_f32(acc0, acc1);
    const float32x2_t t = vadd_f32(vget_low_f32(s), vget_high_f32(s));
    float sum = vget_lane_f32(t, 0) + vget_lane_f32(t, 1);
    for (; k < in; ++k) {
      sum = std::fma(x[k], w[k], sum);
    }
    y[0] = sum + b[0];
    return;
  }
  NeonRowsMatVecF32(x, in, 1, w, /*seed=*/nullptr, b, y, out, in, out);
}

constexpr Kernels kTable = {
    NeonRowMatVecBiasF32, nullptr, NeonRowsMatVecF32, nullptr, nullptr,
    nullptr,              nullptr, nullptr,           nullptr, nullptr,
};

}  // namespace

const Kernels* const kNeonKernelTable = &kTable;

}  // namespace simd
}  // namespace mocc

#else  // !aarch64

namespace mocc {
namespace simd {
const Kernels* const kNeonKernelTable = nullptr;
}  // namespace simd
}  // namespace mocc

#endif
