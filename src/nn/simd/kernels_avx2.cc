// AVX2+FMA tier. Compiled with -mavx2 -mfma -ffp-contract=off on x86 (see
// CMakeLists.txt) and selected at runtime only after CPUID confirms avx2+fma,
// so the binary stays runnable on baseline x86-64. Nothing in this TU has
// external linkage except the table pointer (constant-initialized: resolving
// it executes no AVX2 code).
//
// Every kernel mirrors the scalar reference in scalar_kernels.inc
// lane-for-lane: _mm256_fmadd/fnmadd are the correctly rounded fused ops the
// reference spells as std::fma, the blendv/cmp(_CMP_*_OQ/UNORD) sequences
// reproduce the reference ternaries' NaN routing, cvttps/cvttpd match the
// truncating casts, and cvtps2dq matches lrintf under the default rounding
// mode. tests/simd_dispatch_test.cc asserts the results EXPECT_EQ-identical.
#include "src/nn/simd/kernel_tables.h"

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

#include <cmath>
#include <cstdint>
#include <cstring>

namespace mocc {
namespace simd {
namespace {

#include "src/nn/simd/scalar_kernels.inc"

// ---------------------------------------------------------------------------
// Row mat-vec, float32.
// ---------------------------------------------------------------------------

void Avx2RowMatVecBiasF32(const float* x, const float* w, const float* b, float* y,
                          size_t in, size_t out) {
  if (out == 1) {
    // The defined 8-lane k-split + reduction tree (RefDotLanes float).
    __m256 acc = _mm256_setzero_ps();
    size_t k = 0;
    for (; k + 8 <= in; k += 8) {
      acc = _mm256_fmadd_ps(_mm256_loadu_ps(x + k), _mm256_loadu_ps(w + k), acc);
    }
    const __m128 lo = _mm256_castps256_ps128(acc);
    const __m128 hi = _mm256_extractf128_ps(acc, 1);
    __m128 s = _mm_add_ps(lo, hi);                    // (a0+a4 .. a3+a7)
    s = _mm_add_ps(s, _mm_movehl_ps(s, s));           // lane0=s0+s2, lane1=s1+s3
    s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 0x55));    // t0 + t1
    float sum = _mm_cvtss_f32(s);
    for (; k < in; ++k) {
      sum = std::fma(x[k], w[k], sum);
    }
    y[0] = sum + b[0];
    return;
  }
  size_t j0 = 0;
  // Widest block first: one k-pass feeding up to 8 independent accumulator
  // registers (64 outputs) — one x broadcast serves all of them, the strided W
  // row is streamed once, and the 8 chains hide the 4-cycle FMA latency. The
  // per-lane arithmetic is the reference's per-output chain whatever the block
  // width. The deployed trunk (46->64->32) runs entirely in the 64- and
  // 32-wide blocks; 16-wide covers the PN nets.
  for (; j0 + 64 <= out; j0 += 64) {
    __m256 a0 = _mm256_setzero_ps();
    __m256 a1 = _mm256_setzero_ps();
    __m256 a2 = _mm256_setzero_ps();
    __m256 a3 = _mm256_setzero_ps();
    __m256 a4 = _mm256_setzero_ps();
    __m256 a5 = _mm256_setzero_ps();
    __m256 a6 = _mm256_setzero_ps();
    __m256 a7 = _mm256_setzero_ps();
    const float* wp = w + j0;
    for (size_t k = 0; k < in; ++k, wp += out) {
      const __m256 xk = _mm256_set1_ps(x[k]);
      a0 = _mm256_fmadd_ps(xk, _mm256_loadu_ps(wp), a0);
      a1 = _mm256_fmadd_ps(xk, _mm256_loadu_ps(wp + 8), a1);
      a2 = _mm256_fmadd_ps(xk, _mm256_loadu_ps(wp + 16), a2);
      a3 = _mm256_fmadd_ps(xk, _mm256_loadu_ps(wp + 24), a3);
      a4 = _mm256_fmadd_ps(xk, _mm256_loadu_ps(wp + 32), a4);
      a5 = _mm256_fmadd_ps(xk, _mm256_loadu_ps(wp + 40), a5);
      a6 = _mm256_fmadd_ps(xk, _mm256_loadu_ps(wp + 48), a6);
      a7 = _mm256_fmadd_ps(xk, _mm256_loadu_ps(wp + 56), a7);
    }
    _mm256_storeu_ps(y + j0, _mm256_add_ps(a0, _mm256_loadu_ps(b + j0)));
    _mm256_storeu_ps(y + j0 + 8, _mm256_add_ps(a1, _mm256_loadu_ps(b + j0 + 8)));
    _mm256_storeu_ps(y + j0 + 16, _mm256_add_ps(a2, _mm256_loadu_ps(b + j0 + 16)));
    _mm256_storeu_ps(y + j0 + 24, _mm256_add_ps(a3, _mm256_loadu_ps(b + j0 + 24)));
    _mm256_storeu_ps(y + j0 + 32, _mm256_add_ps(a4, _mm256_loadu_ps(b + j0 + 32)));
    _mm256_storeu_ps(y + j0 + 40, _mm256_add_ps(a5, _mm256_loadu_ps(b + j0 + 40)));
    _mm256_storeu_ps(y + j0 + 48, _mm256_add_ps(a6, _mm256_loadu_ps(b + j0 + 48)));
    _mm256_storeu_ps(y + j0 + 56, _mm256_add_ps(a7, _mm256_loadu_ps(b + j0 + 56)));
  }
  for (; j0 + 32 <= out; j0 += 32) {
    __m256 a0 = _mm256_setzero_ps();
    __m256 a1 = _mm256_setzero_ps();
    __m256 a2 = _mm256_setzero_ps();
    __m256 a3 = _mm256_setzero_ps();
    const float* wp = w + j0;
    for (size_t k = 0; k < in; ++k, wp += out) {
      const __m256 xk = _mm256_set1_ps(x[k]);
      a0 = _mm256_fmadd_ps(xk, _mm256_loadu_ps(wp), a0);
      a1 = _mm256_fmadd_ps(xk, _mm256_loadu_ps(wp + 8), a1);
      a2 = _mm256_fmadd_ps(xk, _mm256_loadu_ps(wp + 16), a2);
      a3 = _mm256_fmadd_ps(xk, _mm256_loadu_ps(wp + 24), a3);
    }
    _mm256_storeu_ps(y + j0, _mm256_add_ps(a0, _mm256_loadu_ps(b + j0)));
    _mm256_storeu_ps(y + j0 + 8, _mm256_add_ps(a1, _mm256_loadu_ps(b + j0 + 8)));
    _mm256_storeu_ps(y + j0 + 16, _mm256_add_ps(a2, _mm256_loadu_ps(b + j0 + 16)));
    _mm256_storeu_ps(y + j0 + 24, _mm256_add_ps(a3, _mm256_loadu_ps(b + j0 + 24)));
  }
  for (; j0 + 16 <= out; j0 += 16) {
    __m256 a0 = _mm256_setzero_ps();
    __m256 a1 = _mm256_setzero_ps();
    const float* wp = w + j0;
    for (size_t k = 0; k < in; ++k, wp += out) {
      const __m256 xk = _mm256_set1_ps(x[k]);
      a0 = _mm256_fmadd_ps(xk, _mm256_loadu_ps(wp), a0);
      a1 = _mm256_fmadd_ps(xk, _mm256_loadu_ps(wp + 8), a1);
    }
    _mm256_storeu_ps(y + j0, _mm256_add_ps(a0, _mm256_loadu_ps(b + j0)));
    _mm256_storeu_ps(y + j0 + 8, _mm256_add_ps(a1, _mm256_loadu_ps(b + j0 + 8)));
  }
  for (; j0 + 8 <= out; j0 += 8) {
    __m256 a0 = _mm256_setzero_ps();
    const float* wp = w + j0;
    for (size_t k = 0; k < in; ++k, wp += out) {
      a0 = _mm256_fmadd_ps(_mm256_set1_ps(x[k]), _mm256_loadu_ps(wp), a0);
    }
    _mm256_storeu_ps(y + j0, _mm256_add_ps(a0, _mm256_loadu_ps(b + j0)));
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

// ---------------------------------------------------------------------------
// Seeded/resumable f32 row mat-vec (RefRowMatVecSeededF32 mirror): per-output
// ascending-k fma chains at every shape, accumulators initialized from `seed`
// (zero when null), bias add skipped when `b` is null.
// ---------------------------------------------------------------------------

template <int NB>  // NB 8-wide column blocks per k-pass (NB*8 outputs)
inline void Avx2SeededBlock(const float* x, const float* w, const float* seed,
                            const float* b, float* y, size_t in, size_t out,
                            size_t j0) {
  __m256 acc[NB];
  for (int t = 0; t < NB; ++t) {
    acc[t] = seed != nullptr ? _mm256_loadu_ps(seed + j0 + 8 * t)
                             : _mm256_setzero_ps();
  }
  const float* wp = w + j0;
  for (size_t k = 0; k < in; ++k, wp += out) {
    const __m256 xk = _mm256_set1_ps(x[k]);
    for (int t = 0; t < NB; ++t) {
      acc[t] = _mm256_fmadd_ps(xk, _mm256_loadu_ps(wp + 8 * t), acc[t]);
    }
  }
  for (int t = 0; t < NB; ++t) {
    __m256 r = acc[t];
    if (b != nullptr) {
      r = _mm256_add_ps(r, _mm256_loadu_ps(b + j0 + 8 * t));
    }
    _mm256_storeu_ps(y + j0 + 8 * t, r);
  }
}

void Avx2RowMatVecSeededF32(const float* x, const float* w, const float* seed,
                            const float* b, float* y, size_t in, size_t out) {
  size_t j0 = 0;
  for (; j0 + 64 <= out; j0 += 64) Avx2SeededBlock<8>(x, w, seed, b, y, in, out, j0);
  for (; j0 + 32 <= out; j0 += 32) Avx2SeededBlock<4>(x, w, seed, b, y, in, out, j0);
  for (; j0 + 16 <= out; j0 += 16) Avx2SeededBlock<2>(x, w, seed, b, y, in, out, j0);
  for (; j0 + 8 <= out; j0 += 8) Avx2SeededBlock<1>(x, w, seed, b, y, in, out, j0);
  for (; j0 < out; ++j0) {
    float acc = seed != nullptr ? seed[j0] : 0.0f;
    const float* wp = w + j0;
    for (size_t k = 0; k < in; ++k, wp += out) {
      acc = std::fma(x[k], *wp, acc);
    }
    y[j0] = b != nullptr ? acc + b[j0] : acc;
  }
}

// ---------------------------------------------------------------------------
// Row mat-vec, double.
// ---------------------------------------------------------------------------

void Avx2RowMatVecBiasF64(const double* x, const double* w, const double* b,
                          double* y, size_t in, size_t out) {
  if (out == 1) {
    // 4-lane k-split + tree (RefDotLanes double).
    __m256d acc = _mm256_setzero_pd();
    size_t k = 0;
    for (; k + 4 <= in; k += 4) {
      acc = _mm256_fmadd_pd(_mm256_loadu_pd(x + k), _mm256_loadu_pd(w + k), acc);
    }
    const __m128d lo = _mm256_castpd256_pd128(acc);
    const __m128d hi = _mm256_extractf128_pd(acc, 1);
    __m128d s = _mm_add_pd(lo, hi);                   // (a0+a2, a1+a3)
    s = _mm_add_sd(s, _mm_unpackhi_pd(s, s));
    double sum = _mm_cvtsd_f64(s);
    for (; k < in; ++k) {
      sum = std::fma(x[k], w[k], sum);
    }
    y[0] = sum + b[0];
    return;
  }
  size_t j0 = 0;
  for (; j0 + 16 <= out; j0 += 16) {
    __m256d a0 = _mm256_setzero_pd();
    __m256d a1 = _mm256_setzero_pd();
    __m256d a2 = _mm256_setzero_pd();
    __m256d a3 = _mm256_setzero_pd();
    const double* wp = w + j0;
    for (size_t k = 0; k < in; ++k, wp += out) {
      const __m256d xk = _mm256_set1_pd(x[k]);
      a0 = _mm256_fmadd_pd(xk, _mm256_loadu_pd(wp), a0);
      a1 = _mm256_fmadd_pd(xk, _mm256_loadu_pd(wp + 4), a1);
      a2 = _mm256_fmadd_pd(xk, _mm256_loadu_pd(wp + 8), a2);
      a3 = _mm256_fmadd_pd(xk, _mm256_loadu_pd(wp + 12), a3);
    }
    _mm256_storeu_pd(y + j0, _mm256_add_pd(a0, _mm256_loadu_pd(b + j0)));
    _mm256_storeu_pd(y + j0 + 4, _mm256_add_pd(a1, _mm256_loadu_pd(b + j0 + 4)));
    _mm256_storeu_pd(y + j0 + 8, _mm256_add_pd(a2, _mm256_loadu_pd(b + j0 + 8)));
    _mm256_storeu_pd(y + j0 + 12, _mm256_add_pd(a3, _mm256_loadu_pd(b + j0 + 12)));
  }
  for (; j0 + 4 <= out; j0 += 4) {
    __m256d a0 = _mm256_setzero_pd();
    const double* wp = w + j0;
    for (size_t k = 0; k < in; ++k, wp += out) {
      a0 = _mm256_fmadd_pd(_mm256_set1_pd(x[k]), _mm256_loadu_pd(wp), a0);
    }
    _mm256_storeu_pd(y + j0, _mm256_add_pd(a0, _mm256_loadu_pd(b + j0)));
  }
  for (; j0 < out; ++j0) {
    double acc = 0.0;
    const double* wp = w + j0;
    for (size_t k = 0; k < in; ++k, wp += out) {
      acc = std::fma(x[k], *wp, acc);
    }
    y[j0] = acc + b[j0];
  }
}

// ---------------------------------------------------------------------------
// FmaTanh, 8 floats per step. Op-for-op image of the scalar FmaTanh(float).
// ---------------------------------------------------------------------------

inline __m256 Avx2TanhPs(__m256 vx) {
  const __m256 ax = _mm256_and_ps(vx, _mm256_castsi256_ps(_mm256_set1_epi32(0x7FFFFFFF)));
  const __m256 sat = _mm256_set1_ps(10.0f);
  // blendv picks `ax` where ax<sat; NaN compares false -> sat, like !(ax<10).
  const __m256 t = _mm256_blendv_ps(sat, ax, _mm256_cmp_ps(ax, sat, _CMP_LT_OQ));
  const __m256 y = _mm256_mul_ps(_mm256_set1_ps(-2.0f), t);
  const __m256 nf =
      _mm256_fmadd_ps(y, _mm256_set1_ps(1.44269504088896340736f), _mm256_set1_ps(-0.5f));
  const __m256i n = _mm256_cvttps_epi32(nf);
  const __m256 fn = _mm256_cvtepi32_ps(n);
  const __m256 r1 = _mm256_fnmadd_ps(fn, _mm256_set1_ps(0.693359375f), y);
  const __m256 r = _mm256_fnmadd_ps(fn, _mm256_set1_ps(-2.12194440e-4f), r1);
  __m256 p = _mm256_set1_ps(1.0f / 40320.0f);
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(1.0f / 5040.0f));
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(1.0f / 720.0f));
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(1.0f / 120.0f));
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(1.0f / 24.0f));
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(1.0f / 6.0f));
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(0.5f));
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(1.0f));
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(1.0f));
  const __m256 scale = _mm256_castsi256_ps(
      _mm256_slli_epi32(_mm256_add_epi32(n, _mm256_set1_epi32(127)), 23));
  const __m256 e = _mm256_mul_ps(p, scale);
  const __m256 den = _mm256_fmadd_ps(p, scale, _mm256_set1_ps(1.0f));
  const __m256 q = _mm256_mul_ps(_mm256_set1_ps(2.0f), e);
  const __m256 z = _mm256_sub_ps(_mm256_set1_ps(1.0f), _mm256_div_ps(q, den));
  const __m256 x2 = _mm256_mul_ps(vx, vx);
  const __m256 small = _mm256_mul_ps(
      vx, _mm256_fmadd_ps(x2, _mm256_set1_ps(-(1.0f / 3.0f)), _mm256_set1_ps(1.0f)));
  const __m256 neg_z = _mm256_xor_ps(z, _mm256_set1_ps(-0.0f));
  const __m256 signed_z =
      _mm256_blendv_ps(z, neg_z, _mm256_cmp_ps(vx, _mm256_setzero_ps(), _CMP_LT_OQ));
  __m256 result = _mm256_blendv_ps(
      signed_z, small, _mm256_cmp_ps(ax, _mm256_set1_ps(0.04f), _CMP_LT_OQ));
  result = _mm256_blendv_ps(result, vx, _mm256_cmp_ps(vx, vx, _CMP_UNORD_Q));
  return result;
}

void Avx2TanhArrayF32(float* data, size_t n) {
  size_t i = 0;
  // Two blocks per iteration: the tanh dataflow is a long dependency chain
  // (poly -> div), so interleaving two independent chains roughly doubles the
  // achieved ILP on the deployed 64/32-wide activation sweeps.
  for (; i + 16 <= n; i += 16) {
    const __m256 r0 = Avx2TanhPs(_mm256_loadu_ps(data + i));
    const __m256 r1 = Avx2TanhPs(_mm256_loadu_ps(data + i + 8));
    _mm256_storeu_ps(data + i, r0);
    _mm256_storeu_ps(data + i + 8, r1);
  }
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(data + i, Avx2TanhPs(_mm256_loadu_ps(data + i)));
  }
  for (; i < n; ++i) {
    data[i] = FmaTanh(data[i]);
  }
}

// Double variant, 4 lanes per step. The exponent n is in [-59, 0], so the
// int64 scale construction can go through a 32-bit truncating convert
// (cvttpd_epi32) and a sign-extending widen — gcc cannot auto-vectorize this
// (there is no AVX2 double->int64 convert), which is exactly why the double
// activation sweep was scalar before this TU existed.
inline __m256d Avx2TanhPd(__m256d vx) {
  const __m256d ax = _mm256_and_pd(
      vx, _mm256_castsi256_pd(_mm256_set1_epi64x(0x7FFFFFFFFFFFFFFFLL)));
  const __m256d sat = _mm256_set1_pd(20.0);
  const __m256d t = _mm256_blendv_pd(sat, ax, _mm256_cmp_pd(ax, sat, _CMP_LT_OQ));
  const __m256d y = _mm256_mul_pd(_mm256_set1_pd(-2.0), t);
  const __m256d nf =
      _mm256_fmadd_pd(y, _mm256_set1_pd(1.44269504088896340736), _mm256_set1_pd(-0.5));
  const __m128i n32 = _mm256_cvttpd_epi32(nf);
  const __m256d fn = _mm256_cvtepi32_pd(n32);
  const __m256d r1 = _mm256_fnmadd_pd(fn, _mm256_set1_pd(6.93147180369123816490e-01), y);
  const __m256d r = _mm256_fnmadd_pd(fn, _mm256_set1_pd(1.90821492927058770002e-10), r1);
  __m256d p = _mm256_set1_pd(1.0 / 6227020800.0);
  p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(1.0 / 479001600.0));
  p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(1.0 / 39916800.0));
  p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(1.0 / 3628800.0));
  p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(1.0 / 362880.0));
  p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(1.0 / 40320.0));
  p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(1.0 / 5040.0));
  p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(1.0 / 720.0));
  p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(1.0 / 120.0));
  p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(1.0 / 24.0));
  p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(1.0 / 6.0));
  p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(0.5));
  p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(1.0));
  p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(1.0));
  const __m256i n64 = _mm256_cvtepi32_epi64(n32);
  const __m256d scale = _mm256_castsi256_pd(
      _mm256_slli_epi64(_mm256_add_epi64(n64, _mm256_set1_epi64x(1023)), 52));
  const __m256d e = _mm256_mul_pd(p, scale);
  const __m256d den = _mm256_fmadd_pd(p, scale, _mm256_set1_pd(1.0));
  const __m256d q = _mm256_mul_pd(_mm256_set1_pd(2.0), e);
  const __m256d z = _mm256_sub_pd(_mm256_set1_pd(1.0), _mm256_div_pd(q, den));
  const __m256d x2 = _mm256_mul_pd(vx, vx);
  const __m256d small = _mm256_mul_pd(
      vx, _mm256_fmadd_pd(x2, _mm256_set1_pd(-(1.0 / 3.0)), _mm256_set1_pd(1.0)));
  const __m256d neg_z = _mm256_xor_pd(z, _mm256_set1_pd(-0.0));
  const __m256d signed_z =
      _mm256_blendv_pd(z, neg_z, _mm256_cmp_pd(vx, _mm256_setzero_pd(), _CMP_LT_OQ));
  __m256d result = _mm256_blendv_pd(
      signed_z, small, _mm256_cmp_pd(ax, _mm256_set1_pd(1e-4), _CMP_LT_OQ));
  result = _mm256_blendv_pd(result, vx, _mm256_cmp_pd(vx, vx, _CMP_UNORD_Q));
  return result;
}

void Avx2TanhArrayF64(double* data, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(data + i, Avx2TanhPd(_mm256_loadu_pd(data + i)));
  }
  for (; i < n; ++i) {
    data[i] = FmaTanh(data[i]);
  }
}

// ---------------------------------------------------------------------------
// Int8 GEMV: one vpmaddubsw + one vpmaddwd per quad of inputs x 8 outputs.
// The 6-bit weight / 8-bit code split keeps maddubs exact (|w| <= 63, codes
// <= 255: one pair product <= 2*255*63 = 32130 < 32767, int16 saturation
// never fires), so accumulation is exact integer arithmetic and bit-identity
// with the reference needs no floating-point argument.
// ---------------------------------------------------------------------------

float Avx2Int8QuantizeRow(const float* x, size_t n, size_t n_pad, uint8_t* codes) {
  if (n < 8) {
    return RefInt8QuantizeRow(x, n, n_pad, codes);
  }
  // Tails run as one OVERLAPPED 8-wide block at n-8 (re-deriving a few lanes
  // with identical inputs → identical outputs), so no scalar epilogue exists.
  const __m256 absmask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff));
  __m256 vmax = _mm256_setzero_ps();
  size_t k = 0;
  for (; k + 8 <= n; k += 8) {
    vmax = _mm256_max_ps(vmax, _mm256_and_ps(_mm256_loadu_ps(x + k), absmask));
  }
  if (k < n) {
    vmax = _mm256_max_ps(vmax, _mm256_and_ps(_mm256_loadu_ps(x + n - 8), absmask));
  }
  // Max is order-independent, so any reduction tree matches the reference.
  __m128 m = _mm_max_ps(_mm256_castps256_ps128(vmax),
                        _mm256_extractf128_ps(vmax, 1));
  m = _mm_max_ps(m, _mm_movehl_ps(m, m));
  m = _mm_max_ss(m, _mm_shuffle_ps(m, m, 1));
  const float maxabs = _mm_cvtss_f32(m);
  const float inv = maxabs > 0.0f ? 127.0f / maxabs : 0.0f;
  const __m256 vinv = _mm256_set1_ps(inv);
  const auto emit8 = [&](size_t at) {
    // cvtps2dq = the reference's lrintf; packs/packus reproduce its clamp.
    const __m256i code = _mm256_add_epi32(
        _mm256_cvtps_epi32(_mm256_mul_ps(_mm256_loadu_ps(x + at), vinv)),
        _mm256_set1_epi32(128));
    const __m128i p16 = _mm_packs_epi32(_mm256_castsi256_si128(code),
                                        _mm256_extracti128_si256(code, 1));
    const __m128i p8 = _mm_packus_epi16(p16, p16);
    _mm_storel_epi64(reinterpret_cast<__m128i*>(codes + at), p8);
  };
  for (k = 0; k + 8 <= n; k += 8) {
    emit8(k);
  }
  if (k < n) {
    emit8(n - 8);
  }
  for (k = n; k < n_pad; ++k) {
    codes[k] = 128;
  }
  return maxabs > 0.0f ? maxabs / 127.0f : 0.0f;
}

void Avx2Int8Gemv(const uint8_t* x, const int8_t* packed, size_t in_pad,
                  size_t out_pad, int32_t* acc) {
  const size_t quads = in_pad / 4;
  const size_t jblocks = out_pad / 8;
  const size_t stride = jblocks * 32;
  const __m256i ones = _mm256_set1_epi16(1);
  size_t jb = 0;
  // Pairs of output blocks share one code broadcast per quad (16 outputs per
  // k-pass); integer adds reorder freely, so this is still bit-exact.
  for (; jb + 2 <= jblocks; jb += 2) {
    __m256i acc0 = _mm256_setzero_si256();
    __m256i acc1 = _mm256_setzero_si256();
    const int8_t* base = packed + jb * 32;
    for (size_t q = 0; q < quads; ++q) {
      uint32_t xq;
      std::memcpy(&xq, x + 4 * q, sizeof(xq));
      const __m256i xv = _mm256_set1_epi32(static_cast<int32_t>(xq));
      const int8_t* wp = base + q * stride;
      const __m256i w0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(wp));
      const __m256i w1 =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(wp + 32));
      acc0 = _mm256_add_epi32(acc0,
                              _mm256_madd_epi16(_mm256_maddubs_epi16(xv, w0), ones));
      acc1 = _mm256_add_epi32(acc1,
                              _mm256_madd_epi16(_mm256_maddubs_epi16(xv, w1), ones));
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + jb * 8), acc0);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + jb * 8 + 8), acc1);
  }
  for (; jb < jblocks; ++jb) {
    __m256i accv = _mm256_setzero_si256();
    const int8_t* base = packed + jb * 32;
    for (size_t q = 0; q < quads; ++q) {
      uint32_t xq;
      std::memcpy(&xq, x + 4 * q, sizeof(xq));
      const __m256i wv =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(base + q * stride));
      const __m256i prod =
          _mm256_maddubs_epi16(_mm256_set1_epi32(static_cast<int32_t>(xq)), wv);
      accv = _mm256_add_epi32(accv, _mm256_madd_epi16(prod, ones));
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + jb * 8), accv);
  }
}

// 8-lane QTanh (see scalar_kernels.inc): same clamp + fma chain, lane-for-lane.
inline __m256 Avx2QTanhPs(__m256 x) {
  const __m256 xc = _mm256_min_ps(
      _mm256_max_ps(x, _mm256_set1_ps(-kQTanhClamp)), _mm256_set1_ps(kQTanhClamp));
  const __m256 q = _mm256_mul_ps(xc, xc);
  __m256 p = _mm256_set1_ps(kQTanhC8);
  p = _mm256_fmadd_ps(p, q, _mm256_set1_ps(kQTanhC7));
  p = _mm256_fmadd_ps(p, q, _mm256_set1_ps(kQTanhC6));
  p = _mm256_fmadd_ps(p, q, _mm256_set1_ps(kQTanhC5));
  p = _mm256_fmadd_ps(p, q, _mm256_set1_ps(kQTanhC4));
  p = _mm256_fmadd_ps(p, q, _mm256_set1_ps(kQTanhC3));
  p = _mm256_fmadd_ps(p, q, _mm256_set1_ps(kQTanhC2));
  p = _mm256_fmadd_ps(p, q, _mm256_set1_ps(kQTanhC1));
  p = _mm256_fmadd_ps(p, q, _mm256_set1_ps(kQTanhC0));
  return _mm256_mul_ps(xc, p);
}

void Avx2Int8PostTanh(const int32_t* acc, const int32_t* col_sums,
                      const float* scales, float sx, const float* bias, size_t out,
                      float* f_out, uint8_t* q_out) {
  const __m256 vsx = _mm256_set1_ps(sx);
  size_t j = 0;
  for (; j + 8 <= out; j += 8) {
    const __m256i a = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc + j));
    const __m256i cs =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(col_sums + j));
    const __m256i corr = _mm256_sub_epi32(a, _mm256_slli_epi32(cs, 7));  // -128*cs
    const __m256 d = _mm256_cvtepi32_ps(corr);
    const __m256 vscale = _mm256_mul_ps(vsx, _mm256_loadu_ps(scales + j));
    const __m256 v = _mm256_fmadd_ps(vscale, d, _mm256_loadu_ps(bias + j));
    const __m256 t = Avx2QTanhPs(v);
    if (f_out != nullptr) {
      _mm256_storeu_ps(f_out + j, t);
    }
    if (q_out != nullptr) {
      // cvtps2dq = round-to-nearest-even = the reference's lrintf; the
      // saturating packs reproduce its [0,255] clamp (codes are in [1,255]).
      const __m256i code = _mm256_add_epi32(
          _mm256_cvtps_epi32(_mm256_mul_ps(t, _mm256_set1_ps(127.0f))),
          _mm256_set1_epi32(128));
      const __m128i p16 = _mm_packs_epi32(_mm256_castsi256_si128(code),
                                          _mm256_extracti128_si256(code, 1));
      const __m128i p8 = _mm_packus_epi16(p16, p16);
      _mm_storel_epi64(reinterpret_cast<__m128i*>(q_out + j), p8);
    }
  }
  if (j < out) {
    RefInt8PostTanh(acc + j, col_sums + j, scales + j, sx, bias + j, out - j,
                    f_out != nullptr ? f_out + j : nullptr,
                    q_out != nullptr ? q_out + j : nullptr);
  }
}

// ---------------------------------------------------------------------------
// Training: unfused c = a · bt (RefMatMulUnfusedF64 mirror), vectorized across
// outputs. Each lane is one output's chain acc + round(x·b): a separate
// _mm256_mul_pd and _mm256_add_pd, which this TU's -ffp-contract=off keeps
// the compiler from fusing. Two rows of c share every bt load, so a 16-wide
// block runs eight independent add chains per k step.
// ---------------------------------------------------------------------------

template <int NR, int NV>  // NR rows of c x NV 4-wide output vectors
inline void Avx2UnfusedBlock(const double* a, const double* bt, double* c,
                             size_t k, size_t n, size_t i, size_t j0) {
  __m256d acc[NR][NV];
  for (int r = 0; r < NR; ++r) {
    for (int v = 0; v < NV; ++v) {
      acc[r][v] = _mm256_setzero_pd();
    }
  }
  const double* bp = bt + j0;
  for (size_t kk = 0; kk < k; ++kk, bp += n) {
    __m256d w[NV];
    for (int v = 0; v < NV; ++v) {
      w[v] = _mm256_loadu_pd(bp + 4 * v);
    }
    for (int r = 0; r < NR; ++r) {
      const __m256d x = _mm256_set1_pd(a[(i + r) * k + kk]);
      for (int v = 0; v < NV; ++v) {
        acc[r][v] = _mm256_add_pd(acc[r][v], _mm256_mul_pd(x, w[v]));
      }
    }
  }
  for (int r = 0; r < NR; ++r) {
    for (int v = 0; v < NV; ++v) {
      _mm256_storeu_pd(c + (i + r) * n + j0 + 4 * v, acc[r][v]);
    }
  }
}

template <int NR>
inline void Avx2UnfusedRows(const double* a, const double* bt, double* c, size_t k,
                            size_t n, size_t i) {
  size_t j0 = 0;
  for (; j0 + 16 <= n; j0 += 16) Avx2UnfusedBlock<NR, 4>(a, bt, c, k, n, i, j0);
  for (; j0 + 8 <= n; j0 += 8) Avx2UnfusedBlock<NR, 2>(a, bt, c, k, n, i, j0);
  for (; j0 + 4 <= n; j0 += 4) Avx2UnfusedBlock<NR, 1>(a, bt, c, k, n, i, j0);
  for (size_t r = i; r < i + NR; ++r) {
    for (size_t j = j0; j < n; ++j) {
      double sum = 0.0;
      for (size_t kk = 0; kk < k; ++kk) {
        sum += a[r * k + kk] * bt[kk * n + j];
      }
      c[r * n + j] = sum;
    }
  }
}

void Avx2MatMulUnfusedF64(const double* a, const double* bt, double* c, size_t m,
                          size_t k, size_t n) {
  size_t i = 0;
  for (; i + 2 <= m; i += 2) Avx2UnfusedRows<2>(a, bt, c, k, n, i);
  for (; i < m; ++i) Avx2UnfusedRows<1>(a, bt, c, k, n, i);
}

constexpr Kernels kTable = {
    Avx2RowMatVecBiasF32, Avx2RowMatVecBiasF64, Avx2RowMatVecSeededF32,
    Avx2TanhArrayF32,     Avx2TanhArrayF64,     Avx2Int8QuantizeRow,
    Avx2Int8Gemv,         Avx2Int8PostTanh,     Avx2MatMulUnfusedF64,
};

}  // namespace

const Kernels* const kAvx2KernelTable = &kTable;

}  // namespace simd
}  // namespace mocc

#else  // !x86

namespace mocc {
namespace simd {
const Kernels* const kAvx2KernelTable = nullptr;
}  // namespace simd
}  // namespace mocc

#endif
