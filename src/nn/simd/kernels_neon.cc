// NEON tier (aarch64 baseline): the float32 row mat-vec only — the cheap,
// clearly-winning mirror. vfmaq_f32 is the same correctly rounded fused op as
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
  size_t j0 = 0;
  for (; j0 + 16 <= out; j0 += 16) {
    float32x4_t a0 = vdupq_n_f32(0.0f);
    float32x4_t a1 = vdupq_n_f32(0.0f);
    float32x4_t a2 = vdupq_n_f32(0.0f);
    float32x4_t a3 = vdupq_n_f32(0.0f);
    const float* wp = w + j0;
    for (size_t k = 0; k < in; ++k, wp += out) {
      const float32x4_t xk = vdupq_n_f32(x[k]);
      a0 = vfmaq_f32(a0, xk, vld1q_f32(wp));
      a1 = vfmaq_f32(a1, xk, vld1q_f32(wp + 4));
      a2 = vfmaq_f32(a2, xk, vld1q_f32(wp + 8));
      a3 = vfmaq_f32(a3, xk, vld1q_f32(wp + 12));
    }
    vst1q_f32(y + j0, vaddq_f32(a0, vld1q_f32(b + j0)));
    vst1q_f32(y + j0 + 4, vaddq_f32(a1, vld1q_f32(b + j0 + 4)));
    vst1q_f32(y + j0 + 8, vaddq_f32(a2, vld1q_f32(b + j0 + 8)));
    vst1q_f32(y + j0 + 12, vaddq_f32(a3, vld1q_f32(b + j0 + 12)));
  }
  for (; j0 + 4 <= out; j0 += 4) {
    float32x4_t a0 = vdupq_n_f32(0.0f);
    const float* wp = w + j0;
    for (size_t k = 0; k < in; ++k, wp += out) {
      a0 = vfmaq_f32(a0, vdupq_n_f32(x[k]), vld1q_f32(wp));
    }
    vst1q_f32(y + j0, vaddq_f32(a0, vld1q_f32(b + j0)));
  }
  for (; j0 < out; ++j0) {
    float acc = 0.0f;
    const float* wp = w + j0;
    for (size_t k = 0; k < in; ++k, wp += out) {
      acc = std::fma(x[k], *wp, acc);
    }
    y[j0] = acc + b[j0];
  }
}

constexpr Kernels kTable = {
    NeonRowMatVecBiasF32, nullptr, nullptr, nullptr, nullptr, nullptr, nullptr, nullptr,
    nullptr,
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
