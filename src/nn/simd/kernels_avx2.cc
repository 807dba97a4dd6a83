// AVX2+FMA tier, and the AVX-512 tier's functions (section at the end).
// Compiled with -mavx2 -mfma -ffp-contract=off on x86 (see CMakeLists.txt) and
// selected at runtime only after CPUID confirms avx2+fma (avx512f/dq/vl for
// the AVX-512 table), so the binary stays runnable on baseline x86-64.
// Nothing in this TU has external linkage except the two table pointers
// (constant-initialized: resolving them executes no vector code).
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
// Multi-row mat-vec (RefRowsMatVec mirror), float32 and double: per-output
// ascending-k fma chains at every shape, accumulators initialized from `seed`
// (zero when null), bias add skipped when `b` is null. A tile is NR rows x NV
// vectors of outputs sharing every weight load. Eight accumulators per tile
// (1 x 8 or 2 x 4 vectors: f32 1 x 64 / 2 x 32 outputs, f64 1 x 32 / 2 x 16)
// keep enough independent chains in flight to cover the FMA latency, which a
// 32-wide single-row pass (4 chains) cannot.
// ---------------------------------------------------------------------------

struct Avx2Ps {
  using T = float;
  using V = __m256;
  static constexpr size_t kLanes = 8;
  static V Load(const T* p) { return _mm256_loadu_ps(p); }
  static V Zero() { return _mm256_setzero_ps(); }
  static V Set1(T v) { return _mm256_set1_ps(v); }
  static V Fma(V a, V b, V c) { return _mm256_fmadd_ps(a, b, c); }
  static V Add(V a, V b) { return _mm256_add_ps(a, b); }
  static void Store(T* p, V v) { _mm256_storeu_ps(p, v); }
};

struct Avx2Pd {
  using T = double;
  using V = __m256d;
  static constexpr size_t kLanes = 4;
  static V Load(const T* p) { return _mm256_loadu_pd(p); }
  static V Zero() { return _mm256_setzero_pd(); }
  static V Set1(T v) { return _mm256_set1_pd(v); }
  static V Fma(V a, V b, V c) { return _mm256_fmadd_pd(a, b, c); }
  static V Add(V a, V b) { return _mm256_add_pd(a, b); }
  static void Store(T* p, V v) { _mm256_storeu_pd(p, v); }
};

template <typename Ops, int NR, int NV, typename T = typename Ops::T>
inline void Avx2RowsTile(const T* x, size_t x_stride, const T* w, const T* seed,
                         const T* b, T* y, size_t y_stride, size_t in, size_t out,
                         size_t j0) {
  using V = typename Ops::V;
  constexpr size_t L = Ops::kLanes;
  V acc[NR][NV];
  for (int v = 0; v < NV; ++v) {
    const V init = seed != nullptr ? Ops::Load(seed + j0 + L * v) : Ops::Zero();
    for (int r = 0; r < NR; ++r) {
      acc[r][v] = init;
    }
  }
  const T* wp = w + j0;
  for (size_t k = 0; k < in; ++k, wp += out) {
    V wv[NV];
    for (int v = 0; v < NV; ++v) {
      wv[v] = Ops::Load(wp + L * v);
    }
    for (int r = 0; r < NR; ++r) {
      const V xk = Ops::Set1(x[r * x_stride + k]);
      for (int v = 0; v < NV; ++v) {
        acc[r][v] = Ops::Fma(xk, wv[v], acc[r][v]);
      }
    }
  }
  for (int r = 0; r < NR; ++r) {
    for (int v = 0; v < NV; ++v) {
      V res = acc[r][v];
      if (b != nullptr) {
        res = Ops::Add(res, Ops::Load(b + j0 + L * v));
      }
      Ops::Store(y + r * y_stride + j0 + L * v, res);
    }
  }
}

// Rows [0, NR) of x and y, every output: the 8-accumulator tile, then
// narrower blocks, then the reference's scalar chains for the last out % L.
template <typename Ops, int NR, typename T = typename Ops::T>
inline void Avx2RowsBlock(const T* x, size_t x_stride, const T* w, const T* seed,
                          const T* b, T* y, size_t y_stride, size_t in, size_t out) {
  constexpr size_t L = Ops::kLanes;
  constexpr int kWide = 8 / NR;
  size_t j0 = 0;
  for (; j0 + kWide * L <= out; j0 += kWide * L) {
    Avx2RowsTile<Ops, NR, kWide>(x, x_stride, w, seed, b, y, y_stride, in, out, j0);
  }
  if constexpr (kWide > 4) {
    for (; j0 + 4 * L <= out; j0 += 4 * L) {
      Avx2RowsTile<Ops, NR, 4>(x, x_stride, w, seed, b, y, y_stride, in, out, j0);
    }
  }
  if constexpr (kWide > 2) {
    for (; j0 + 2 * L <= out; j0 += 2 * L) {
      Avx2RowsTile<Ops, NR, 2>(x, x_stride, w, seed, b, y, y_stride, in, out, j0);
    }
  }
  for (; j0 + L <= out; j0 += L) {
    Avx2RowsTile<Ops, NR, 1>(x, x_stride, w, seed, b, y, y_stride, in, out, j0);
  }
  if (j0 < out) {
    RefRowsMatVecCols(x, x_stride, NR, w, seed, b, y, y_stride, in, out, j0);
  }
}

template <typename Ops, typename T = typename Ops::T>
void Avx2RowsMatVec(const T* x, size_t x_stride, size_t n, const T* w, const T* seed,
                    const T* b, T* y, size_t y_stride, size_t in, size_t out) {
  size_t r = 0;
  for (; r + 2 <= n; r += 2) {
    Avx2RowsBlock<Ops, 2>(x + r * x_stride, x_stride, w, seed, b, y + r * y_stride,
                          y_stride, in, out);
  }
  if (r < n) {
    Avx2RowsBlock<Ops, 1>(x + r * x_stride, x_stride, w, seed, b, y + r * y_stride,
                          y_stride, in, out);
  }
}

// ---------------------------------------------------------------------------
// Row mat-vec: out == 1 is the defined lane-split dot (RefDotLanes); wider
// layers are the one-row case of the multi-row kernel, whose per-output
// chains are the reference's.
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
  Avx2RowsBlock<Avx2Ps, 1, float>(x, in, w, /*seed=*/nullptr, b, y, out, in, out);
}

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
  Avx2RowsBlock<Avx2Pd, 1, double>(x, in, w, /*seed=*/nullptr, b, y, out, in, out);
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

// ---------------------------------------------------------------------------
// AVX-512 tier (Tier::kAvx512): the multi-row mat-vec and the tanh sweeps in
// 512-bit registers. These functions carry a target attribute instead of a
// per-file flag, so this TU's -mavx2 -mfma -ffp-contract=off build (the same
// in the library and in every build that mirrors its flags) compiles them on
// any x86 compiler setting, and dispatch.cc calls them only after CPUID
// reports avx512f, avx512dq and avx512vl. Everything the tier does not
// implement keeps the AVX2 entry (dispatch.cc composes the table over it).
// The arithmetic is the AVX2 kernels' lane for lane: _mm512_fmadd/fnmadd are
// the same correctly rounded fused ops, k-mask compares and blends reproduce
// the reference ternaries' NaN routing, and masked loads and stores cover
// the column and element tails without a scalar epilogue (masked-off lanes
// compute on zeros and are never stored).
// ---------------------------------------------------------------------------

#define MOCC_AVX512 __attribute__((target("avx512f,avx512dq,avx512vl")))

struct Avx512Ps {
  using T = float;
  using V = __m512;
  using Mask = __mmask16;
  static constexpr size_t kLanes = 16;
  MOCC_AVX512 static V Load(const T* p) { return _mm512_loadu_ps(p); }
  MOCC_AVX512 static V LoadMasked(Mask m, const T* p) {
    return _mm512_maskz_loadu_ps(m, p);
  }
  MOCC_AVX512 static V Zero() { return _mm512_setzero_ps(); }
  MOCC_AVX512 static V Set1(T v) { return _mm512_set1_ps(v); }
  MOCC_AVX512 static V Fma(V a, V b, V c) { return _mm512_fmadd_ps(a, b, c); }
  MOCC_AVX512 static V Add(V a, V b) { return _mm512_add_ps(a, b); }
  MOCC_AVX512 static void Store(T* p, V v) { _mm512_storeu_ps(p, v); }
  MOCC_AVX512 static void StoreMasked(T* p, Mask m, V v) {
    _mm512_mask_storeu_ps(p, m, v);
  }
};

struct Avx512Pd {
  using T = double;
  using V = __m512d;
  using Mask = __mmask8;
  static constexpr size_t kLanes = 8;
  MOCC_AVX512 static V Load(const T* p) { return _mm512_loadu_pd(p); }
  MOCC_AVX512 static V LoadMasked(Mask m, const T* p) {
    return _mm512_maskz_loadu_pd(m, p);
  }
  MOCC_AVX512 static V Zero() { return _mm512_setzero_pd(); }
  MOCC_AVX512 static V Set1(T v) { return _mm512_set1_pd(v); }
  MOCC_AVX512 static V Fma(V a, V b, V c) { return _mm512_fmadd_pd(a, b, c); }
  MOCC_AVX512 static V Add(V a, V b) { return _mm512_add_pd(a, b); }
  MOCC_AVX512 static void Store(T* p, V v) { _mm512_storeu_pd(p, v); }
  MOCC_AVX512 static void StoreMasked(T* p, Mask m, V v) {
    _mm512_mask_storeu_pd(p, m, v);
  }
};

// One NR x NV tile (Avx2RowsTile's shape); with kMasked every vector is the
// `mask` lanes of a column tail (used with NV == 1).
template <typename Ops, int NR, int NV, bool kMasked, typename T = typename Ops::T>
MOCC_AVX512 inline void Avx512RowsTile(const T* x, size_t x_stride, const T* w,
                                       const T* seed, const T* b, T* y,
                                       size_t y_stride, size_t in, size_t out,
                                       size_t j0, typename Ops::Mask mask) {
  using V = typename Ops::V;
  constexpr size_t L = Ops::kLanes;
  V acc[NR][NV];
  for (int v = 0; v < NV; ++v) {
    V init = Ops::Zero();
    if (seed != nullptr) {
      init = kMasked ? Ops::LoadMasked(mask, seed + j0 + L * v)
                     : Ops::Load(seed + j0 + L * v);
    }
    for (int r = 0; r < NR; ++r) {
      acc[r][v] = init;
    }
  }
  const T* wp = w + j0;
  for (size_t k = 0; k < in; ++k, wp += out) {
    V wv[NV];
    for (int v = 0; v < NV; ++v) {
      wv[v] = kMasked ? Ops::LoadMasked(mask, wp + L * v) : Ops::Load(wp + L * v);
    }
    for (int r = 0; r < NR; ++r) {
      const V xk = Ops::Set1(x[r * x_stride + k]);
      for (int v = 0; v < NV; ++v) {
        acc[r][v] = Ops::Fma(xk, wv[v], acc[r][v]);
      }
    }
  }
  for (int r = 0; r < NR; ++r) {
    for (int v = 0; v < NV; ++v) {
      V res = acc[r][v];
      if (b != nullptr) {
        res = Ops::Add(res, kMasked ? Ops::LoadMasked(mask, b + j0 + L * v)
                                    : Ops::Load(b + j0 + L * v));
      }
      T* dst = y + r * y_stride + j0 + L * v;
      if (kMasked) {
        Ops::StoreMasked(dst, mask, res);
      } else {
        Ops::Store(dst, res);
      }
    }
  }
}

// Outputs [j0, j0 + NV * L) (the `mask` lanes when kMasked) of every row:
// NR-row tiles, then 2- and 1-row tiles for the row remainder. Columns are
// the outer loop, so a block's weight columns stay in L1 across the rows.
template <typename Ops, int NR, int NV, bool kMasked, typename T = typename Ops::T>
MOCC_AVX512 inline void Avx512RowsColumns(const T* x, size_t x_stride, size_t n,
                                          const T* w, const T* seed, const T* b,
                                          T* y, size_t y_stride, size_t in,
                                          size_t out, size_t j0,
                                          typename Ops::Mask mask) {
  size_t r = 0;
  for (; r + NR <= n; r += NR) {
    Avx512RowsTile<Ops, NR, NV, kMasked>(x + r * x_stride, x_stride, w, seed, b,
                                         y + r * y_stride, y_stride, in, out, j0,
                                         mask);
  }
  if constexpr (NR > 2) {
    if (r + 2 <= n) {
      Avx512RowsTile<Ops, 2, NV, kMasked>(x + r * x_stride, x_stride, w, seed, b,
                                          y + r * y_stride, y_stride, in, out, j0,
                                          mask);
      r += 2;
    }
  }
  if constexpr (NR > 1) {
    if (r < n) {
      Avx512RowsTile<Ops, 1, NV, kMasked>(x + r * x_stride, x_stride, w, seed, b,
                                          y + r * y_stride, y_stride, in, out, j0,
                                          mask);
    }
  }
}

// float32: 2 x 64 tiles (the trunk's 64-wide first layer), 4 x 32 (its
// 64->32 layer), 4 x 16, then a masked 4 x (out % 16) tail.
MOCC_AVX512 void Avx512RowsMatVecF32(const float* x, size_t x_stride, size_t n,
                                     const float* w, const float* seed,
                                     const float* b, float* y, size_t y_stride,
                                     size_t in, size_t out) {
  using Ops = Avx512Ps;
  const __mmask16 all = 0xFFFF;
  size_t j0 = 0;
  for (; j0 + 64 <= out; j0 += 64) {
    Avx512RowsColumns<Ops, 2, 4, false>(x, x_stride, n, w, seed, b, y, y_stride, in,
                                        out, j0, all);
  }
  for (; j0 + 32 <= out; j0 += 32) {
    Avx512RowsColumns<Ops, 4, 2, false>(x, x_stride, n, w, seed, b, y, y_stride, in,
                                        out, j0, all);
  }
  for (; j0 + 16 <= out; j0 += 16) {
    Avx512RowsColumns<Ops, 4, 1, false>(x, x_stride, n, w, seed, b, y, y_stride, in,
                                        out, j0, all);
  }
  if (j0 < out) {
    const __mmask16 tail = static_cast<__mmask16>((1u << (out - j0)) - 1u);
    Avx512RowsColumns<Ops, 4, 1, true>(x, x_stride, n, w, seed, b, y, y_stride, in,
                                       out, j0, tail);
  }
}

// double: 4 x 16 tiles, 4 x 8, then a masked 4 x (out % 8) tail.
MOCC_AVX512 void Avx512RowsMatVecF64(const double* x, size_t x_stride, size_t n,
                                     const double* w, const double* seed,
                                     const double* b, double* y, size_t y_stride,
                                     size_t in, size_t out) {
  using Ops = Avx512Pd;
  const __mmask8 all = 0xFF;
  size_t j0 = 0;
  for (; j0 + 16 <= out; j0 += 16) {
    Avx512RowsColumns<Ops, 4, 2, false>(x, x_stride, n, w, seed, b, y, y_stride, in,
                                        out, j0, all);
  }
  for (; j0 + 8 <= out; j0 += 8) {
    Avx512RowsColumns<Ops, 4, 1, false>(x, x_stride, n, w, seed, b, y, y_stride, in,
                                        out, j0, all);
  }
  if (j0 < out) {
    const __mmask8 tail = static_cast<__mmask8>((1u << (out - j0)) - 1u);
    Avx512RowsColumns<Ops, 4, 1, true>(x, x_stride, n, w, seed, b, y, y_stride, in,
                                       out, j0, tail);
  }
}

// FmaTanh, 16 floats per step: Avx2TanhPs with k-mask blends.
MOCC_AVX512 inline __m512 Avx512TanhPs(__m512 vx) {
  const __m512 ax = _mm512_abs_ps(vx);
  const __m512 sat = _mm512_set1_ps(10.0f);
  // ax where ax<sat; NaN compares false -> sat, like !(ax<10).
  const __m512 t = _mm512_mask_blend_ps(_mm512_cmp_ps_mask(ax, sat, _CMP_LT_OQ), sat, ax);
  const __m512 y = _mm512_mul_ps(_mm512_set1_ps(-2.0f), t);
  const __m512 nf =
      _mm512_fmadd_ps(y, _mm512_set1_ps(1.44269504088896340736f), _mm512_set1_ps(-0.5f));
  const __m512i n = _mm512_cvttps_epi32(nf);
  const __m512 fn = _mm512_cvtepi32_ps(n);
  const __m512 r1 = _mm512_fnmadd_ps(fn, _mm512_set1_ps(0.693359375f), y);
  const __m512 r = _mm512_fnmadd_ps(fn, _mm512_set1_ps(-2.12194440e-4f), r1);
  __m512 p = _mm512_set1_ps(1.0f / 40320.0f);
  p = _mm512_fmadd_ps(p, r, _mm512_set1_ps(1.0f / 5040.0f));
  p = _mm512_fmadd_ps(p, r, _mm512_set1_ps(1.0f / 720.0f));
  p = _mm512_fmadd_ps(p, r, _mm512_set1_ps(1.0f / 120.0f));
  p = _mm512_fmadd_ps(p, r, _mm512_set1_ps(1.0f / 24.0f));
  p = _mm512_fmadd_ps(p, r, _mm512_set1_ps(1.0f / 6.0f));
  p = _mm512_fmadd_ps(p, r, _mm512_set1_ps(0.5f));
  p = _mm512_fmadd_ps(p, r, _mm512_set1_ps(1.0f));
  p = _mm512_fmadd_ps(p, r, _mm512_set1_ps(1.0f));
  const __m512 scale = _mm512_castsi512_ps(
      _mm512_slli_epi32(_mm512_add_epi32(n, _mm512_set1_epi32(127)), 23));
  const __m512 e = _mm512_mul_ps(p, scale);
  const __m512 den = _mm512_fmadd_ps(p, scale, _mm512_set1_ps(1.0f));
  const __m512 q = _mm512_mul_ps(_mm512_set1_ps(2.0f), e);
  const __m512 z = _mm512_sub_ps(_mm512_set1_ps(1.0f), _mm512_div_ps(q, den));
  const __m512 x2 = _mm512_mul_ps(vx, vx);
  const __m512 small = _mm512_mul_ps(
      vx, _mm512_fmadd_ps(x2, _mm512_set1_ps(-(1.0f / 3.0f)), _mm512_set1_ps(1.0f)));
  const __m512 neg_z = _mm512_xor_ps(z, _mm512_set1_ps(-0.0f));
  const __m512 signed_z = _mm512_mask_blend_ps(
      _mm512_cmp_ps_mask(vx, _mm512_setzero_ps(), _CMP_LT_OQ), z, neg_z);
  __m512 result = _mm512_mask_blend_ps(
      _mm512_cmp_ps_mask(ax, _mm512_set1_ps(0.04f), _CMP_LT_OQ), signed_z, small);
  result = _mm512_mask_blend_ps(_mm512_cmp_ps_mask(vx, vx, _CMP_UNORD_Q), result, vx);
  return result;
}

MOCC_AVX512 void Avx512TanhArrayF32(float* data, size_t n) {
  size_t i = 0;
  // Two independent chains per iteration, as in Avx2TanhArrayF32.
  for (; i + 32 <= n; i += 32) {
    const __m512 r0 = Avx512TanhPs(_mm512_loadu_ps(data + i));
    const __m512 r1 = Avx512TanhPs(_mm512_loadu_ps(data + i + 16));
    _mm512_storeu_ps(data + i, r0);
    _mm512_storeu_ps(data + i + 16, r1);
  }
  for (; i + 16 <= n; i += 16) {
    _mm512_storeu_ps(data + i, Avx512TanhPs(_mm512_loadu_ps(data + i)));
  }
  if (i < n) {
    const __mmask16 tail = static_cast<__mmask16>((1u << (n - i)) - 1u);
    _mm512_mask_storeu_ps(data + i, tail,
                          Avx512TanhPs(_mm512_maskz_loadu_ps(tail, data + i)));
  }
}

// Double variant, 8 lanes per step. AVX-512DQ converts double <-> int64
// directly, so the exponent needs no 32-bit detour.
MOCC_AVX512 inline __m512d Avx512TanhPd(__m512d vx) {
  const __m512d ax = _mm512_abs_pd(vx);
  const __m512d sat = _mm512_set1_pd(20.0);
  const __m512d t = _mm512_mask_blend_pd(_mm512_cmp_pd_mask(ax, sat, _CMP_LT_OQ), sat, ax);
  const __m512d y = _mm512_mul_pd(_mm512_set1_pd(-2.0), t);
  const __m512d nf =
      _mm512_fmadd_pd(y, _mm512_set1_pd(1.44269504088896340736), _mm512_set1_pd(-0.5));
  const __m512i n = _mm512_cvttpd_epi64(nf);
  const __m512d fn = _mm512_cvtepi64_pd(n);
  const __m512d r1 = _mm512_fnmadd_pd(fn, _mm512_set1_pd(6.93147180369123816490e-01), y);
  const __m512d r = _mm512_fnmadd_pd(fn, _mm512_set1_pd(1.90821492927058770002e-10), r1);
  __m512d p = _mm512_set1_pd(1.0 / 6227020800.0);
  p = _mm512_fmadd_pd(p, r, _mm512_set1_pd(1.0 / 479001600.0));
  p = _mm512_fmadd_pd(p, r, _mm512_set1_pd(1.0 / 39916800.0));
  p = _mm512_fmadd_pd(p, r, _mm512_set1_pd(1.0 / 3628800.0));
  p = _mm512_fmadd_pd(p, r, _mm512_set1_pd(1.0 / 362880.0));
  p = _mm512_fmadd_pd(p, r, _mm512_set1_pd(1.0 / 40320.0));
  p = _mm512_fmadd_pd(p, r, _mm512_set1_pd(1.0 / 5040.0));
  p = _mm512_fmadd_pd(p, r, _mm512_set1_pd(1.0 / 720.0));
  p = _mm512_fmadd_pd(p, r, _mm512_set1_pd(1.0 / 120.0));
  p = _mm512_fmadd_pd(p, r, _mm512_set1_pd(1.0 / 24.0));
  p = _mm512_fmadd_pd(p, r, _mm512_set1_pd(1.0 / 6.0));
  p = _mm512_fmadd_pd(p, r, _mm512_set1_pd(0.5));
  p = _mm512_fmadd_pd(p, r, _mm512_set1_pd(1.0));
  p = _mm512_fmadd_pd(p, r, _mm512_set1_pd(1.0));
  const __m512d scale = _mm512_castsi512_pd(
      _mm512_slli_epi64(_mm512_add_epi64(n, _mm512_set1_epi64(1023)), 52));
  const __m512d e = _mm512_mul_pd(p, scale);
  const __m512d den = _mm512_fmadd_pd(p, scale, _mm512_set1_pd(1.0));
  const __m512d q = _mm512_mul_pd(_mm512_set1_pd(2.0), e);
  const __m512d z = _mm512_sub_pd(_mm512_set1_pd(1.0), _mm512_div_pd(q, den));
  const __m512d x2 = _mm512_mul_pd(vx, vx);
  const __m512d small = _mm512_mul_pd(
      vx, _mm512_fmadd_pd(x2, _mm512_set1_pd(-(1.0 / 3.0)), _mm512_set1_pd(1.0)));
  const __m512d neg_z = _mm512_xor_pd(z, _mm512_set1_pd(-0.0));
  const __m512d signed_z = _mm512_mask_blend_pd(
      _mm512_cmp_pd_mask(vx, _mm512_setzero_pd(), _CMP_LT_OQ), z, neg_z);
  __m512d result = _mm512_mask_blend_pd(
      _mm512_cmp_pd_mask(ax, _mm512_set1_pd(1e-4), _CMP_LT_OQ), signed_z, small);
  result = _mm512_mask_blend_pd(_mm512_cmp_pd_mask(vx, vx, _CMP_UNORD_Q), result, vx);
  return result;
}

MOCC_AVX512 void Avx512TanhArrayF64(double* data, size_t n) {
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512d r0 = Avx512TanhPd(_mm512_loadu_pd(data + i));
    const __m512d r1 = Avx512TanhPd(_mm512_loadu_pd(data + i + 8));
    _mm512_storeu_pd(data + i, r0);
    _mm512_storeu_pd(data + i + 8, r1);
  }
  for (; i + 8 <= n; i += 8) {
    _mm512_storeu_pd(data + i, Avx512TanhPd(_mm512_loadu_pd(data + i)));
  }
  if (i < n) {
    const __mmask8 tail = static_cast<__mmask8>((1u << (n - i)) - 1u);
    _mm512_mask_storeu_pd(data + i, tail,
                          Avx512TanhPd(_mm512_maskz_loadu_pd(tail, data + i)));
  }
}

#undef MOCC_AVX512

constexpr Kernels kTable = {
    Avx2RowMatVecBiasF32,  Avx2RowMatVecBiasF64,
    Avx2RowsMatVec<Avx2Ps>, Avx2RowsMatVec<Avx2Pd>,
    Avx2TanhArrayF32,      Avx2TanhArrayF64,
    Avx2Int8QuantizeRow,   Avx2Int8Gemv,
    Avx2Int8PostTanh,      Avx2MatMulUnfusedF64,
};

// Only the entries above; dispatch.cc fills the rest from kTable.
constexpr Kernels kAvx512Table = {
    nullptr,             nullptr,             Avx512RowsMatVecF32,
    Avx512RowsMatVecF64, Avx512TanhArrayF32,  Avx512TanhArrayF64,
    nullptr,             nullptr,             nullptr,
    nullptr,
};

}  // namespace

const Kernels* const kAvx2KernelTable = &kTable;
const Kernels* const kAvx512KernelTable = &kAvx512Table;

}  // namespace simd
}  // namespace mocc

#else  // !x86

namespace mocc {
namespace simd {
const Kernels* const kAvx2KernelTable = nullptr;
const Kernels* const kAvx512KernelTable = nullptr;
}  // namespace simd
}  // namespace mocc

#endif
