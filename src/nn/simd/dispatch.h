// Runtime-dispatched SIMD kernels for the inference hot paths and the PPO
// update's forward and input-gradient products.
//
// One binary, every microarchitecture: the build no longer relies on
// -march=native auto-vectorization for the hot kernels. Instead the hot loops
// (RowMatVecBias, the multi-row RowsMatVec behind every batched dense layer,
// the FastTanh activation sweeps, the int8 quantized row GEMV, and the
// training backward pass's dL/dX product) are compiled per ISA tier in their
// own translation units (src/nn/simd/kernels_*.cc) and selected ONCE per
// process by CPUID:
//
//   x86-64:  AVX-512 F+DQ+VL -> kAvx512 (multi-row mat-vec and tanh in zmm
//            tiles; every other entry is the AVX2 one); else AVX2+FMA ->
//            kAvx2; else SSSE3 -> kSsse3 (int8 GEMV only, float kernels stay
//            scalar); else kScalar.
//   aarch64: kNeon (baseline NEON, float32 mat-vec; everything else scalar).
//   other:   kScalar.
//
// The AVX-512 functions live in kernels_avx2.cc under a function-level target
// attribute, so they build wherever that TU builds (its -mavx2 -mfma
// -ffp-contract=off flags apply to them too) and run only after CPUID says
// avx512f, avx512dq and avx512vl are there.
//
// MOCC_FORCE_SCALAR=1 in the environment (read once, at first dispatch) pins
// the process to the scalar reference tier — CI runs the full test suite that
// way, and the golden-inference test is registered a second time under it.
//
// Determinism contract: every tier returns BIT-IDENTICAL results for every
// kernel. The scalar reference (scalar_kernels.inc) is written so each output
// is a fixed sequence of correctly rounded IEEE ops + explicit std::fma, and
// the vector tiers execute the same sequence lane-for-lane; the int8 kernels
// are exact integer arithmetic. tests/simd_dispatch_test.cc asserts equality
// (EXPECT_EQ, not tolerance) between the scalar tier and every tier the host
// supports, so "which CPU ran this" can never change an inference result or
// a trained weight — only how fast it was produced. Consequence: dispatch
// stays process-wide constant, so the serial-vs-thread-pool and batch-vs-row
// bit-identity contracts of the NN substrate are unaffected by which tier is
// active.
#ifndef MOCC_SRC_NN_SIMD_DISPATCH_H_
#define MOCC_SRC_NN_SIMD_DISPATCH_H_

#include <cstddef>
#include <cstdint>

namespace mocc {
namespace simd {

enum class Tier {
  kScalar = 0,
  kSsse3 = 1,
  kAvx2 = 2,
  kNeon = 3,
  kAvx512 = 4,
};

// Stable lowercase name for logs / BENCH json ("scalar", "ssse3", "avx2",
// "neon", "avx512").
const char* TierName(Tier tier);

// One function-pointer table per tier. All pointers are always non-null in a
// table returned by Active()/KernelsForTier (tiers that only accelerate a
// subset are backfilled with the scalar reference for the rest; kAvx512 is
// backfilled with the AVX2 table).
struct Kernels {
  // y = x·W + b for one row: W is in×out row-major (column j strided by out).
  void (*row_matvec_bias_f32)(const float* x, const float* w, const float* b,
                              float* y, size_t in, size_t out);
  void (*row_matvec_bias_f64)(const double* x, const double* w, const double* b,
                              double* y, size_t in, size_t out);
  // Multi-row mat-vec over n strided rows sharing one weight matrix: for row
  // r < n and output j < out,
  //   acc = seed[j] (0 when seed is null), then acc = fma(x[r*x_stride + k],
  //   w[k*out + j], acc) for ascending k < in;
  //   y[r*y_stride + j] = acc + b[j] (acc when b is null).
  // One ascending-k fma chain per output at EVERY shape (no out==1 lane
  // split), so (a) a [0,s) pass with null seed and bias followed by a [s,in)
  // pass seeded with its outputs is bit-identical to one full-range call —
  // the deployment policy's cached layer-0 prefix (inference_policy.cc) — and
  // (b) with a null seed every output equals row_matvec_bias_*'s for out > 1,
  // which lets a batched dense layer use this kernel while single-row
  // forwards keep the row kernel. The vector tiers tile rows x outputs to
  // keep 8 independent accumulators in flight; the tiling never touches an
  // output's chain.
  void (*rows_matvec_f32)(const float* x, size_t x_stride, size_t n, const float* w,
                          const float* seed, const float* b, float* y,
                          size_t y_stride, size_t in, size_t out);
  void (*rows_matvec_f64)(const double* x, size_t x_stride, size_t n,
                          const double* w, const double* seed, const double* b,
                          double* y, size_t y_stride, size_t in, size_t out);
  // In-place FmaTanh over a contiguous array.
  void (*tanh_array_f32)(float* data, size_t n);
  void (*tanh_array_f64)(double* data, size_t n);
  // Row quantizer for the int8 first layer: derives the symmetric step from
  // the row's max magnitude (sx = max|x|/127, returned; 0 for an all-zero
  // row), writes codes[k] = 128 + round(x[k]·127/max|x|) clamped to [0,255]
  // for k < n and the neutral code 128 for k in [n, n_pad). Exact across
  // tiers: fabs/max are order-independent, and the divide / multiply / round
  // are single correctly rounded IEEE ops (cvtps2dq = lrintf under RNE).
  float (*int8_quantize_row)(const float* x, size_t n, size_t n_pad,
                             uint8_t* codes);
  // Int8 row GEMV over Int8PackedIndex-packed weights: acc[j] = Σ_k x[k]·w[k,j]
  // for j in [0, out_pad). x holds in_pad offset-128 uint8 codes in [0,255];
  // weights are in [-63,63] (the headroom that keeps maddubs' int16 pair sums
  // exact — see scalar_kernels.inc); in_pad % 8 == 0 and out_pad % 8 == 0
  // (the packer pads with zero weights / code 128).
  void (*int8_row_gemv)(const uint8_t* x, const int8_t* packed, size_t in_pad,
                        size_t out_pad, int32_t* acc);
  // Fused dequant + bias + tanh (+ requant) epilogue for one quantized layer;
  // out is the REAL output count (<= out_pad). v_j = fma(sx*scales[j],
  // acc[j]-128*col_sums[j], bias[j]), t_j = QTanh(v_j); writes t to f_out OR
  // its offset-128 code (128 + round(127·t)) to q_out (exactly one non-null).
  void (*int8_post_tanh)(const int32_t* acc, const int32_t* col_sums,
                         const float* scales, float sx, const float* bias,
                         size_t out, float* f_out, uint8_t* q_out);
  // Training kernel: c[m x n] = a[m x k] · bt[k x n], all row-major, where
  // each output is the ascending-k sum of individually rounded products with
  // NO fma, starting from +0: c = ((0 + a0·b0) + a1·b1) + ... This is the
  // backward pass's dL/dX = Δ·Wᵀ (MatMulTransposeBInto stages Wᵀ as bt). It
  // is unfused because that is the arithmetic the committed models and
  // training digests were produced with; every tier keeps it, so training
  // reproduces the same bytes on any host.
  void (*matmul_unfused_f64)(const double* a, const double* bt, double* c,
                             size_t m, size_t k, size_t n);
};

// The tier selected for this process (CPUID + MOCC_FORCE_SCALAR, resolved once
// on first call, constant afterwards).
Tier ActiveTier();

// Kernel table for ActiveTier().
const Kernels& Active();

// Table for an explicit tier, or nullptr when this host cannot run it (not
// compiled in, or CPUID says no). KernelsForTier(Tier::kScalar) always
// succeeds. Ignores MOCC_FORCE_SCALAR — this is the test hook that lets one
// process compare tiers in-process.
const Kernels* KernelsForTier(Tier tier);

// True when MOCC_FORCE_SCALAR pinned the process to the scalar tier.
bool ForcedScalar();

// Byte index of w_q[k][j] inside the packed int8 weight buffer (the packer in
// qmlp.cc and the scalar reference GEMV share this one definition; the layout
// is what one vpmaddubsw consumes per 8 outputs — see scalar_kernels.inc).
inline size_t Int8PackedIndex(size_t k, size_t j, size_t out_pad) {
  return ((k / 4) * (out_pad / 8) + j / 8) * 32 + (j % 8) * 4 + (k % 4);
}

// ---------------------------------------------------------------------------
// Convenience entry points used by the NN substrate (matrix.cc / mlp.cc /
// qmlp.cc). One predicted branch + indirect call on top of the kernel.
// ---------------------------------------------------------------------------

inline void RowMatVecBias(const float* x, const float* w, const float* b, float* y,
                          size_t in, size_t out) {
  Active().row_matvec_bias_f32(x, w, b, y, in, out);
}

inline void RowMatVecBias(const double* x, const double* w, const double* b,
                          double* y, size_t in, size_t out) {
  Active().row_matvec_bias_f64(x, w, b, y, in, out);
}

inline void RowsMatVec(const float* x, size_t x_stride, size_t n, const float* w,
                       const float* seed, const float* b, float* y, size_t y_stride,
                       size_t in, size_t out) {
  Active().rows_matvec_f32(x, x_stride, n, w, seed, b, y, y_stride, in, out);
}

inline void RowsMatVec(const double* x, size_t x_stride, size_t n, const double* w,
                       const double* seed, const double* b, double* y,
                       size_t y_stride, size_t in, size_t out) {
  Active().rows_matvec_f64(x, x_stride, n, w, seed, b, y, y_stride, in, out);
}

inline void TanhArray(float* data, size_t n) { Active().tanh_array_f32(data, n); }

inline void TanhArray(double* data, size_t n) { Active().tanh_array_f64(data, n); }

inline float Int8QuantizeRow(const float* x, size_t n, size_t n_pad,
                             uint8_t* codes) {
  return Active().int8_quantize_row(x, n, n_pad, codes);
}

inline void Int8RowGemv(const uint8_t* x, const int8_t* packed, size_t in_pad,
                        size_t out_pad, int32_t* acc) {
  Active().int8_row_gemv(x, packed, in_pad, out_pad, acc);
}

inline void Int8PostTanh(const int32_t* acc, const int32_t* col_sums,
                         const float* scales, float sx, const float* bias,
                         size_t out, float* f_out, uint8_t* q_out) {
  Active().int8_post_tanh(acc, col_sums, scales, sx, bias, out, f_out, q_out);
}

inline void MatMulUnfused(const double* a, const double* bt, double* c, size_t m,
                          size_t k, size_t n) {
  Active().matmul_unfused_f64(a, bt, c, m, k, n);
}

}  // namespace simd
}  // namespace mocc

#endif  // MOCC_SRC_NN_SIMD_DISPATCH_H_
