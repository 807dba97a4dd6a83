// The `simd` suite: the scalar<->vector bit-identity contract of the runtime
// dispatch layer (src/nn/simd/dispatch.h).
//
// Every kernel table the host can run (scalar always; SSSE3/AVX2/AVX-512/NEON
// when CPUID + the build say so) is compared against the scalar reference with
// EXPECT_EQ — not tolerances — over odd shapes, remainder tails, and the int8
// quantized pipeline. This is the property that makes runtime dispatch safe:
// which CPU ran an inference can never change its result, only its speed.
// The end-to-end form of the same contract is golden_inference_test, which
// ctest registers a second time under MOCC_FORCE_SCALAR=1. The training
// kernel (the backward pass's dL/dX product) is held to the same EXPECT_EQ.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/nn/mlp.h"
#include "src/nn/qmlp.h"
#include "src/nn/simd/dispatch.h"

namespace mocc {
namespace {

using simd::Kernels;
using simd::Tier;

// Every tier this binary + host can execute. Scalar is always first, so
// comparisons below read "tiers[0] vs tiers[i]".
std::vector<Tier> SupportedTiers() {
  std::vector<Tier> tiers;
  for (Tier t : {Tier::kScalar, Tier::kSsse3, Tier::kAvx2, Tier::kNeon, Tier::kAvx512}) {
    if (simd::KernelsForTier(t) != nullptr) {
      tiers.push_back(t);
    }
  }
  return tiers;
}

std::vector<float> RandomRowF32(Rng* rng, size_t n, double lo, double hi) {
  std::vector<float> v(n);
  for (auto& x : v) {
    x = static_cast<float>(rng->Uniform(lo, hi));
  }
  return v;
}

std::vector<double> RandomRowF64(Rng* rng, size_t n, double lo, double hi) {
  std::vector<double> v(n);
  for (auto& x : v) {
    x = rng->Uniform(lo, hi);
  }
  return v;
}

TEST(DispatchTest, ScalarTierAlwaysSupportedAndComplete) {
  const Kernels* scalar = simd::KernelsForTier(Tier::kScalar);
  ASSERT_NE(scalar, nullptr);
  // Composed tables are fully populated: tiers that accelerate a subset are
  // backfilled with the scalar reference.
  for (Tier t : SupportedTiers()) {
    const Kernels* k = simd::KernelsForTier(t);
    ASSERT_NE(k, nullptr) << simd::TierName(t);
    EXPECT_NE(k->row_matvec_bias_f32, nullptr) << simd::TierName(t);
    EXPECT_NE(k->row_matvec_bias_f64, nullptr) << simd::TierName(t);
    EXPECT_NE(k->rows_matvec_f32, nullptr) << simd::TierName(t);
    EXPECT_NE(k->rows_matvec_f64, nullptr) << simd::TierName(t);
    EXPECT_NE(k->tanh_array_f32, nullptr) << simd::TierName(t);
    EXPECT_NE(k->tanh_array_f64, nullptr) << simd::TierName(t);
    EXPECT_NE(k->int8_quantize_row, nullptr) << simd::TierName(t);
    EXPECT_NE(k->int8_row_gemv, nullptr) << simd::TierName(t);
    EXPECT_NE(k->int8_post_tanh, nullptr) << simd::TierName(t);
    EXPECT_NE(k->matmul_unfused_f64, nullptr) << simd::TierName(t);
  }
}

TEST(DispatchTest, ActiveTierIsSupportedAndNamed) {
  const Tier active = simd::ActiveTier();
  EXPECT_NE(simd::KernelsForTier(active), nullptr);
  EXPECT_STRNE(simd::TierName(active), "unknown");
  // The active table IS the composed table of the active tier.
  EXPECT_EQ(simd::Active().row_matvec_bias_f32,
            simd::KernelsForTier(active)->row_matvec_bias_f32);
  // MOCC_FORCE_SCALAR pins the process to scalar (this is what the
  // *_scalar ctest registrations assert end to end).
  if (simd::ForcedScalar()) {
    EXPECT_EQ(active, Tier::kScalar);
  }
}

#if defined(__x86_64__) || defined(__i386__)
bool HostHasAvx512() {
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma") &&
         __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512dq") &&
         __builtin_cpu_supports("avx512vl");
}
#else
bool HostHasAvx512() { return false; }
#endif

TEST(DispatchTest, Avx512TierComparedOnCapableHosts) {
  // Every BitIdentityTest below compares the tiers SupportedTiers() lists;
  // this case makes a missing AVX-512 comparison visible in the test log
  // instead of silently passing.
  if (!HostHasAvx512()) {
    GTEST_SKIP() << "host CPU lacks avx512f/avx512dq/avx512vl (or AVX2+FMA): the "
                    "AVX-512 tier is not compared against the scalar reference here";
  }
  const auto tiers = SupportedTiers();
  EXPECT_NE(std::find(tiers.begin(), tiers.end(), Tier::kAvx512), tiers.end());
  EXPECT_STREQ(simd::TierName(Tier::kAvx512), "avx512");
  if (!simd::ForcedScalar()) {
    EXPECT_EQ(simd::ActiveTier(), Tier::kAvx512);
  }
}

TEST(DispatchTest, Avx512TableIsComposedOverAvx2) {
  // The AVX-512 tier implements the multi-row mat-vec and the tanh sweeps;
  // every other entry must be the AVX2 kernel, not the scalar fallback.
  const Kernels* avx512 = simd::KernelsForTier(Tier::kAvx512);
  if (avx512 == nullptr) {
    GTEST_SKIP() << "AVX-512 tier not available on this host";
  }
  const Kernels* avx2 = simd::KernelsForTier(Tier::kAvx2);
  ASSERT_NE(avx2, nullptr) << "AVX-512 tier approved without the AVX2 tier";
  EXPECT_EQ(avx512->row_matvec_bias_f32, avx2->row_matvec_bias_f32);
  EXPECT_EQ(avx512->row_matvec_bias_f64, avx2->row_matvec_bias_f64);
  EXPECT_EQ(avx512->int8_quantize_row, avx2->int8_quantize_row);
  EXPECT_EQ(avx512->int8_row_gemv, avx2->int8_row_gemv);
  EXPECT_EQ(avx512->int8_post_tanh, avx2->int8_post_tanh);
  EXPECT_EQ(avx512->matmul_unfused_f64, avx2->matmul_unfused_f64);
  // Its own entries really are its own.
  EXPECT_NE(avx512->rows_matvec_f32, avx2->rows_matvec_f32);
  EXPECT_NE(avx512->rows_matvec_f64, avx2->rows_matvec_f64);
  EXPECT_NE(avx512->tanh_array_f32, avx2->tanh_array_f32);
  EXPECT_NE(avx512->tanh_array_f64, avx2->tanh_array_f64);
}

// Shapes exercising every vector block size and remainder tail in the f32
// kernels (64/32/16/8-wide blocks, the out==1 lane split, scalar tails), plus
// the real deployment shapes (46->64->32->1 trunk, 30-dim history suffix,
// 3->16 PN).
struct Shape {
  size_t in, out;
};
const Shape kShapes[] = {{1, 1},  {2, 1},   {7, 1},   {8, 1},  {9, 1},  {30, 1},
                         {32, 1}, {33, 1},  {1, 5},   {3, 16}, {5, 7},  {8, 8},
                         {9, 17}, {15, 33}, {16, 16}, {17, 9}, {30, 64}, {31, 31},
                         {46, 64}, {64, 32}, {65, 65}};

TEST(BitIdentityTest, RowMatVecBiasF32MatchesScalarOnEveryTier) {
  const auto tiers = SupportedTiers();
  Rng rng(101);
  for (const Shape& s : kShapes) {
    const auto x = RandomRowF32(&rng, s.in, -3.0, 3.0);
    const auto w = RandomRowF32(&rng, s.in * s.out, -1.5, 1.5);
    const auto b = RandomRowF32(&rng, s.out, -1.0, 1.0);
    std::vector<float> y_ref(s.out);
    simd::KernelsForTier(Tier::kScalar)
        ->row_matvec_bias_f32(x.data(), w.data(), b.data(), y_ref.data(), s.in, s.out);
    for (Tier t : tiers) {
      std::vector<float> y(s.out, -777.0f);
      simd::KernelsForTier(t)->row_matvec_bias_f32(x.data(), w.data(), b.data(),
                                                   y.data(), s.in, s.out);
      for (size_t j = 0; j < s.out; ++j) {
        EXPECT_EQ(y[j], y_ref[j]) << simd::TierName(t) << " " << s.in << "x"
                                  << s.out << " j=" << j;
      }
    }
  }
}

TEST(BitIdentityTest, RowMatVecBiasF64MatchesScalarOnEveryTier) {
  const auto tiers = SupportedTiers();
  Rng rng(102);
  for (const Shape& s : kShapes) {
    const auto x = RandomRowF64(&rng, s.in, -3.0, 3.0);
    const auto w = RandomRowF64(&rng, s.in * s.out, -1.5, 1.5);
    const auto b = RandomRowF64(&rng, s.out, -1.0, 1.0);
    std::vector<double> y_ref(s.out);
    simd::KernelsForTier(Tier::kScalar)
        ->row_matvec_bias_f64(x.data(), w.data(), b.data(), y_ref.data(), s.in, s.out);
    for (Tier t : tiers) {
      std::vector<double> y(s.out, -777.0);
      simd::KernelsForTier(t)->row_matvec_bias_f64(x.data(), w.data(), b.data(),
                                                   y.data(), s.in, s.out);
      for (size_t j = 0; j < s.out; ++j) {
        EXPECT_EQ(y[j], y_ref[j]) << simd::TierName(t) << " " << s.in << "x"
                                  << s.out << " j=" << j;
      }
    }
  }
}

TEST(BitIdentityTest, SeededSplitEqualsFullOnEveryTier) {
  // The multi-row kernel's seed contract: a [0,s) pass with null seed/bias
  // followed by a seeded [s,in) pass is bit-identical to one full-range call —
  // on every tier, and identical across tiers. This is what makes the
  // cached-prefix policy trick (inference_policy.cc) a pure optimization.
  const auto tiers = SupportedTiers();
  Rng rng(103);
  for (const Shape& s : kShapes) {
    const auto x = RandomRowF32(&rng, s.in, -3.0, 3.0);
    const auto w = RandomRowF32(&rng, s.in * s.out, -1.5, 1.5);
    const auto b = RandomRowF32(&rng, s.out, -1.0, 1.0);
    std::vector<float> y_full_ref(s.out);
    simd::KernelsForTier(Tier::kScalar)
        ->rows_matvec_f32(x.data(), s.in, 1, w.data(), nullptr, b.data(),
                          y_full_ref.data(), s.out, s.in, s.out);
    for (Tier t : tiers) {
      const Kernels* k = simd::KernelsForTier(t);
      std::vector<float> y_full(s.out);
      k->rows_matvec_f32(x.data(), s.in, 1, w.data(), nullptr, b.data(), y_full.data(),
                         s.out, s.in, s.out);
      for (size_t split : {size_t{0}, size_t{1}, s.in / 2, s.in}) {
        std::vector<float> seed(s.out, 0.0f);
        std::vector<float> y_split(s.out);
        k->rows_matvec_f32(x.data(), s.in, 1, w.data(), nullptr, nullptr, seed.data(),
                           s.out, split, s.out);
        k->rows_matvec_f32(x.data() + split, s.in, 1, w.data() + split * s.out,
                           seed.data(), b.data(), y_split.data(), s.out, s.in - split,
                           s.out);
        for (size_t j = 0; j < s.out; ++j) {
          EXPECT_EQ(y_split[j], y_full[j])
              << simd::TierName(t) << " " << s.in << "x" << s.out
              << " split=" << split << " j=" << j;
          EXPECT_EQ(y_full[j], y_full_ref[j]) << simd::TierName(t);
        }
      }
    }
  }
}

// The multi-row kernel against the scalar table at every tile remainder: row
// counts 1..9 and 33 (every 1/2/4-row tile mix), strided input rows
// (x_stride > in, as the policy reads the history slice out of observation
// rows), strided output rows, seed and bias each present or absent, and the
// deployed shapes plus odd column tails (every 64/32/16/8-wide block and
// masked or scalar tail). For out > 1 with no seed, the same values must
// come out of the single-row kernel too: that is what lets batched dense
// layers run here while single-row forwards keep the row kernel.
template <typename T>
void ExpectRowsMatVecMatchesScalar(
    void (*Kernels::*entry)(const T*, size_t, size_t, const T*, const T*, const T*, T*,
                            size_t, size_t, size_t),
    void (*Kernels::*row_entry)(const T*, const T*, const T*, T*, size_t, size_t),
    uint64_t seed_value) {
  const Shape shapes[] = {{30, 64}, {46, 64}, {64, 32}, {16, 16},
                          {3, 16},  {7, 5},   {13, 33}, {70, 17}};
  const size_t row_counts[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 33};
  const Kernels* scalar = simd::KernelsForTier(Tier::kScalar);
  Rng rng(seed_value);
  auto random = [&rng](size_t n, double lo, double hi) {
    std::vector<T> v(n);
    for (auto& e : v) {
      e = static_cast<T>(rng.Uniform(lo, hi));
    }
    return v;
  };
  for (const Shape& s : shapes) {
    const size_t x_stride = s.in + 3;
    const size_t y_stride = s.out + 2;
    const auto w = random(s.in * s.out, -1.5, 1.5);
    const auto seed = random(s.out, -2.0, 2.0);
    const auto b = random(s.out, -1.0, 1.0);
    for (size_t n : row_counts) {
      const auto x = random(n * x_stride, -3.0, 3.0);
      for (const T* sd : {static_cast<const T*>(nullptr), seed.data()}) {
        for (const T* bias : {static_cast<const T*>(nullptr), b.data()}) {
          std::vector<T> y_ref(n * y_stride, T(-777));
          (scalar->*entry)(x.data(), x_stride, n, w.data(), sd, bias, y_ref.data(),
                           y_stride, s.in, s.out);
          for (Tier t : SupportedTiers()) {
            const Kernels* k = simd::KernelsForTier(t);
            std::vector<T> y(n * y_stride, T(-777));
            (k->*entry)(x.data(), x_stride, n, w.data(), sd, bias, y.data(), y_stride,
                        s.in, s.out);
            for (size_t e = 0; e < y.size(); ++e) {
              // Padding between output rows stays untouched.
              EXPECT_EQ(y[e], y_ref[e])
                  << simd::TierName(t) << " " << s.in << "x" << s.out << " n=" << n
                  << " seed=" << (sd != nullptr) << " bias=" << (bias != nullptr)
                  << " row=" << e / y_stride << " j=" << e % y_stride;
            }
            if (sd == nullptr && bias != nullptr) {
              std::vector<T> y_row(s.out);
              for (size_t r = 0; r < n; ++r) {
                (k->*row_entry)(x.data() + r * x_stride, w.data(), bias, y_row.data(),
                                s.in, s.out);
                for (size_t j = 0; j < s.out; ++j) {
                  EXPECT_EQ(y_row[j], y[r * y_stride + j])
                      << simd::TierName(t) << " row kernel " << s.in << "x" << s.out
                      << " r=" << r << " j=" << j;
                }
              }
            }
          }
        }
      }
    }
  }
}

TEST(BitIdentityTest, RowsMatVecMatchesScalarOnEveryTier) {
  ExpectRowsMatVecMatchesScalar<float>(&Kernels::rows_matvec_f32,
                                       &Kernels::row_matvec_bias_f32, 104);
  ExpectRowsMatVecMatchesScalar<double>(&Kernels::rows_matvec_f64,
                                        &Kernels::row_matvec_bias_f64, 105);
}

// Bit patterns, so NaN results compare equal to themselves (payload included).
uint32_t Bits(float v) {
  uint32_t u;
  std::memcpy(&u, &v, sizeof(u));
  return u;
}

uint64_t Bits(double v) {
  uint64_t u;
  std::memcpy(&u, &v, sizeof(u));
  return u;
}

// Each edge value with its neighbours one ulp either side, both signs.
template <typename T>
void AppendEdges(std::vector<T>* grid, std::initializer_list<T> edges) {
  for (T e : edges) {
    for (T v : {std::nextafter(e, T(0)), e, std::nextafter(e, T(1e30))}) {
      grid->push_back(v);
      grid->push_back(-v);
    }
  }
}

TEST(BitIdentityTest, TanhArraysMatchScalarOnEveryTier) {
  const auto tiers = SupportedTiers();
  // Dense grid across the interesting range, then the special values: NaN,
  // +-inf, +-0, subnormals, the saturation clamps (10 for float, 20 for
  // double) and the small-x crossovers (0.04 / 1e-4), each with its ulp
  // neighbours. Odd lengths leave vector remainder tails.
  std::vector<float> grid_f;
  std::vector<double> grid_d;
  for (double v = -12.0; v <= 12.0; v += 0.037) {
    grid_f.push_back(static_cast<float>(v));
    grid_d.push_back(v);
  }
  grid_f.insert(grid_f.end(), {0.0f, -0.0f, 1e-30f, -1e-30f, 40.0f, -40.0f,
                               std::numeric_limits<float>::quiet_NaN(),
                               -std::numeric_limits<float>::quiet_NaN(),
                               std::numeric_limits<float>::infinity(),
                               -std::numeric_limits<float>::infinity(),
                               std::numeric_limits<float>::denorm_min(),
                               -std::numeric_limits<float>::denorm_min(), 1e-40f,
                               -1e-40f});
  grid_d.insert(grid_d.end(), {0.0, -0.0, 1e-300, -1e-300, 40.0, -40.0,
                               std::numeric_limits<double>::quiet_NaN(),
                               -std::numeric_limits<double>::quiet_NaN(),
                               std::numeric_limits<double>::infinity(),
                               -std::numeric_limits<double>::infinity(),
                               std::numeric_limits<double>::denorm_min(),
                               -std::numeric_limits<double>::denorm_min(), 1e-310,
                               -1e-310});
  AppendEdges(&grid_f, {10.0f, 20.0f, 0.04f, 1e-4f});
  AppendEdges(&grid_d, {10.0, 20.0, 0.04, 1e-4});
  const size_t lengths[] = {1, 7, 8, 9, 15, 16, 17, 31, 33, grid_f.size()};
  for (size_t n : lengths) {
    for (Tier t : tiers) {
      // The special values sit at the end of the grid; a window ending there
      // puts them in every lane position and tail as n varies.
      std::vector<float> a_ref(grid_f.end() - n, grid_f.end());
      std::vector<float> a(grid_f.end() - n, grid_f.end());
      simd::KernelsForTier(Tier::kScalar)->tanh_array_f32(a_ref.data(), n);
      simd::KernelsForTier(t)->tanh_array_f32(a.data(), n);
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(Bits(a[i]), Bits(a_ref[i]))
            << simd::TierName(t) << " f32 n=" << n << " x=" << grid_f[grid_f.size() - n + i];
      }
      const size_t nd = std::min(n, grid_d.size());
      std::vector<double> d_ref(grid_d.end() - nd, grid_d.end());
      std::vector<double> d(grid_d.end() - nd, grid_d.end());
      simd::KernelsForTier(Tier::kScalar)->tanh_array_f64(d_ref.data(), nd);
      simd::KernelsForTier(t)->tanh_array_f64(d.data(), nd);
      for (size_t i = 0; i < nd; ++i) {
        EXPECT_EQ(Bits(d[i]), Bits(d_ref[i]))
            << simd::TierName(t) << " f64 n=" << nd << " x=" << grid_d[grid_d.size() - nd + i];
      }
    }
  }
  // The reference's own special-value semantics, which every tier inherits.
  float f[] = {std::numeric_limits<float>::quiet_NaN(),
               std::numeric_limits<float>::infinity(),
               -std::numeric_limits<float>::infinity(), -0.0f};
  simd::KernelsForTier(Tier::kScalar)->tanh_array_f32(f, 4);
  EXPECT_TRUE(std::isnan(f[0]));
  EXPECT_EQ(f[1], 1.0f);
  EXPECT_EQ(f[2], -1.0f);
  EXPECT_TRUE(std::signbit(f[3]) && f[3] == 0.0f);
}

// ---------------------------------------------------------------------------
// Training kernel: the backward pass's dL/dX = Δ·Wᵀ as c = a · bt with
// unfused ascending sums.
// ---------------------------------------------------------------------------

TEST(BitIdentityTest, MatMulUnfusedF64MatchesScalarOnEveryTier) {
  struct MatShape {
    size_t m, k, n;  // c is m x n, reduced over k
  };
  // The trained model's products (k = a layer's output width, n = the inputs
  // whose gradient is read): the trunk's first layer limited to its 16 PN
  // columns and in full, its 64->32 and 32->1 layers, and the PN's 16->16
  // layer. Then odd shapes whose reduction lengths (1, 3, 5) and output widths
  // (1, 3, 17, 46) leave remainder tails, over 2-row blocks with and without a
  // leftover row.
  std::vector<MatShape> shapes = {
      {9, 64, 16}, {9, 64, 46}, {9, 32, 64}, {9, 1, 32}, {9, 16, 16}};
  for (size_t m : {size_t{1}, size_t{4}, size_t{5}}) {
    for (size_t k : {size_t{1}, size_t{3}, size_t{5}}) {
      for (size_t n : {size_t{1}, size_t{3}, size_t{17}, size_t{46}}) {
        shapes.push_back({m, k, n});
      }
    }
  }
  const auto tiers = SupportedTiers();
  Rng rng(112);
  for (const MatShape& s : shapes) {
    const auto a = RandomRowF64(&rng, s.m * s.k, -2.0, 2.0);
    const auto bt = RandomRowF64(&rng, s.k * s.n, -1.5, 1.5);
    std::vector<double> c_ref(s.m * s.n, -777.0);
    simd::KernelsForTier(Tier::kScalar)
        ->matmul_unfused_f64(a.data(), bt.data(), c_ref.data(), s.m, s.k, s.n);
    for (Tier t : tiers) {
      std::vector<double> c(s.m * s.n, -777.0);
      simd::KernelsForTier(t)->matmul_unfused_f64(a.data(), bt.data(), c.data(),
                                                  s.m, s.k, s.n);
      for (size_t e = 0; e < c.size(); ++e) {
        EXPECT_EQ(c[e], c_ref[e]) << simd::TierName(t) << " " << s.m << "x" << s.k
                                  << "x" << s.n << " e=" << e;
      }
    }
  }
}

TEST(BitIdentityTest, MatMulUnfusedF64RoundsEveryProduct) {
  // c = (0 + 1·(-1)) + x·x with x = 1 + 2^-30. Rounding x·x drops its 2^-60
  // term, so the unfused chain gives exactly 2^-29; an fma would keep it.
  // Checked on every tier and at column positions in every block width
  // (29 = 16 + 8 + 4 + 1).
  const double x = 1.0 + 0x1p-30;
  for (Tier t : SupportedTiers()) {
    for (size_t n : {size_t{1}, size_t{4}, size_t{8}, size_t{16}, size_t{29}}) {
      const std::vector<double> a = {1.0, x};
      std::vector<double> bt(2 * n);
      for (size_t j = 0; j < n; ++j) {
        bt[j] = -1.0;
        bt[n + j] = x;
      }
      std::vector<double> c(n, -777.0);
      simd::KernelsForTier(t)->matmul_unfused_f64(a.data(), bt.data(), c.data(), 1,
                                                  2, n);
      for (size_t j = 0; j < n; ++j) {
        EXPECT_EQ(c[j], 0x1p-29) << simd::TierName(t) << " n=" << n << " j=" << j;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Int8 pipeline: quantize -> GEMV -> epilogue, each bit-identical across tiers
// and (for the GEMV) exactly equal to a plain int64 reference computed here.
// ---------------------------------------------------------------------------

TEST(BitIdentityTest, Int8QuantizeRowMatchesScalarOnEveryTier) {
  const auto tiers = SupportedTiers();
  Rng rng(104);
  for (size_t n : {size_t{1}, size_t{3}, size_t{7}, size_t{8}, size_t{9},
                   size_t{13}, size_t{16}, size_t{30}, size_t{43}, size_t{64}}) {
    const size_t n_pad = (n + 7) & ~size_t{7};
    for (int rep = 0; rep < 8; ++rep) {
      // Rep 0 is the all-zero row (sx must be exactly 0, all codes 128).
      std::vector<float> x(n, 0.0f);
      if (rep > 0) {
        x = RandomRowF32(&rng, n, -10.0, 10.0);
      }
      std::vector<uint8_t> codes_ref(n_pad, 7);
      const float sx_ref = simd::KernelsForTier(Tier::kScalar)
                               ->int8_quantize_row(x.data(), n, n_pad, codes_ref.data());
      if (rep == 0) {
        EXPECT_EQ(sx_ref, 0.0f);
      }
      for (size_t k = n; k < n_pad; ++k) {
        EXPECT_EQ(codes_ref[k], 128) << "pad k=" << k;
      }
      for (Tier t : tiers) {
        std::vector<uint8_t> codes(n_pad, 9);
        const float sx = simd::KernelsForTier(t)->int8_quantize_row(
            x.data(), n, n_pad, codes.data());
        EXPECT_EQ(sx, sx_ref) << simd::TierName(t) << " n=" << n;
        EXPECT_EQ(std::memcmp(codes.data(), codes_ref.data(), n_pad), 0)
            << simd::TierName(t) << " n=" << n << " rep=" << rep;
      }
      // Round-trip bound: |x[k] - sx*(code-128)| <= sx/2 (nearest-code
      // property of the quantizer).
      for (size_t k = 0; k < n; ++k) {
        const float back = sx_ref * (static_cast<int>(codes_ref[k]) - 128);
        EXPECT_LE(std::fabs(x[k] - back), sx_ref * 0.5f + 1e-7f) << "k=" << k;
      }
    }
  }
}

TEST(BitIdentityTest, Int8RowGemvExactOnEveryTier) {
  const auto tiers = SupportedTiers();
  Rng rng(105);
  for (const Shape& s : {Shape{8, 8}, Shape{16, 8}, Shape{32, 64}, Shape{40, 16},
                         Shape{64, 32}, Shape{48, 72}}) {
    // Full-range codes and weights: 255 * 63 per lane, the worst case the
    // 6-bit weight headroom must survive without int16 saturation.
    std::vector<uint8_t> codes(s.in);
    for (auto& c : codes) {
      c = static_cast<uint8_t>(rng.Uniform(0.0, 255.999));
    }
    std::vector<int8_t> packed((s.in / 4) * (s.out / 8) * 32, 0);
    std::vector<std::vector<int8_t>> w(s.in, std::vector<int8_t>(s.out));
    for (size_t k = 0; k < s.in; ++k) {
      for (size_t j = 0; j < s.out; ++j) {
        w[k][j] = static_cast<int8_t>(rng.Uniform(-63.0, 63.999));
        packed[simd::Int8PackedIndex(k, j, s.out)] = w[k][j];
      }
    }
    // Plain int64 reference — overflow-free by construction.
    std::vector<int64_t> ref(s.out, 0);
    for (size_t k = 0; k < s.in; ++k) {
      for (size_t j = 0; j < s.out; ++j) {
        ref[j] += static_cast<int64_t>(codes[k]) * w[k][j];
      }
    }
    for (Tier t : tiers) {
      std::vector<int32_t> acc(s.out, -1);
      simd::KernelsForTier(t)->int8_row_gemv(codes.data(), packed.data(), s.in,
                                             s.out, acc.data());
      for (size_t j = 0; j < s.out; ++j) {
        EXPECT_EQ(static_cast<int64_t>(acc[j]), ref[j])
            << simd::TierName(t) << " " << s.in << "x" << s.out << " j=" << j;
      }
    }
  }
}

TEST(BitIdentityTest, Int8PostTanhMatchesScalarOnEveryTier) {
  const auto tiers = SupportedTiers();
  Rng rng(106);
  for (size_t out : {size_t{1}, size_t{5}, size_t{8}, size_t{13}, size_t{32},
                     size_t{64}}) {
    const size_t out_pad = (out + 7) & ~size_t{7};
    std::vector<int32_t> acc(out_pad);
    std::vector<int32_t> col_sums(out_pad);
    std::vector<float> scales(out_pad);
    std::vector<float> bias(out_pad);
    for (size_t j = 0; j < out_pad; ++j) {
      acc[j] = static_cast<int32_t>(rng.Uniform(-500000.0, 500000.0));
      col_sums[j] = static_cast<int32_t>(rng.Uniform(-2000.0, 2000.0));
      scales[j] = static_cast<float>(rng.Uniform(0.001, 0.05));
      bias[j] = static_cast<float>(rng.Uniform(-1.0, 1.0));
    }
    const float sx = 1.0f / 127.0f;
    std::vector<float> f_ref(out), f_out(out);
    std::vector<uint8_t> q_ref(out), q_out(out);
    simd::KernelsForTier(Tier::kScalar)
        ->int8_post_tanh(acc.data(), col_sums.data(), scales.data(), sx,
                         bias.data(), out, f_ref.data(), nullptr);
    simd::KernelsForTier(Tier::kScalar)
        ->int8_post_tanh(acc.data(), col_sums.data(), scales.data(), sx,
                         bias.data(), out, nullptr, q_ref.data());
    for (Tier t : tiers) {
      std::fill(f_out.begin(), f_out.end(), -9.0f);
      std::fill(q_out.begin(), q_out.end(), 9);
      simd::KernelsForTier(t)->int8_post_tanh(acc.data(), col_sums.data(),
                                              scales.data(), sx, bias.data(), out,
                                              f_out.data(), nullptr);
      simd::KernelsForTier(t)->int8_post_tanh(acc.data(), col_sums.data(),
                                              scales.data(), sx, bias.data(), out,
                                              nullptr, q_out.data());
      for (size_t j = 0; j < out; ++j) {
        EXPECT_EQ(f_out[j], f_ref[j]) << simd::TierName(t) << " out=" << out;
        EXPECT_EQ(q_out[j], q_ref[j]) << simd::TierName(t) << " out=" << out;
      }
    }
    // The requantized code is the offset-128 coding of the f_out activation.
    for (size_t j = 0; j < out; ++j) {
      const int expect = 128 + static_cast<int>(std::lrintf(f_ref[j] * 127.0f));
      EXPECT_EQ(static_cast<int>(q_ref[j]), std::min(255, std::max(0, expect)));
    }
  }
}

TEST(Int8AccuracyTest, QTanhStaysWithinPolynomialBound) {
  // Drive the epilogue with sx = 0 so v_j = bias_j exactly: f_out becomes
  // QTanh(bias), measurable against std::tanh. The committed coefficient set
  // has max abs error 9.855e-4 on [-3.6, 3.6] and clamps to ±tanh(3.6) beyond.
  const Kernels* k = simd::KernelsForTier(Tier::kScalar);
  std::vector<float> xs;
  for (double v = -8.0; v <= 8.0; v += 0.003) {
    xs.push_back(static_cast<float>(v));
  }
  const size_t out = xs.size();
  std::vector<int32_t> acc(out, 0), col_sums(out, 0);
  std::vector<float> scales(out, 1.0f), f_out(out);
  double max_err = 0.0;
  k->int8_post_tanh(acc.data(), col_sums.data(), scales.data(), /*sx=*/0.0f,
                    xs.data(), out, f_out.data(), nullptr);
  for (size_t i = 0; i < out; ++i) {
    max_err = std::max(max_err, std::fabs(static_cast<double>(f_out[i]) -
                                          std::tanh(static_cast<double>(xs[i]))));
  }
  EXPECT_LT(max_err, 1.1e-3);
}

// ---------------------------------------------------------------------------
// QuantizedMlp: the freeze/seed/forward contract over the kernels.
// ---------------------------------------------------------------------------

// The deployment trunk shape: 46 -> 64 -> 32 -> 1 (tanh, tanh, identity).
MlpT<float> MakeTrunk(Rng* rng) {
  MlpT<double> net({46, 64, 32, 1}, Activation::kTanh, Activation::kIdentity, rng);
  MlpT<float> f;
  f.CastFrom(net);
  return f;
}

TEST(QuantizedMlpTest, FreezeSplitsAtFirstNonTanhLayer) {
  Rng rng(107);
  MlpT<float> trunk = MakeTrunk(&rng);
  QuantizedMlp q;
  q.FreezeFrom(trunk);
  EXPECT_EQ(q.in_dim(), 46u);
  EXPECT_EQ(q.out_dim(), 1u);
  EXPECT_EQ(q.quantized_layer_count(), 2u);  // the two tanh layers
  EXPECT_EQ(q.float_layer_count(), 1u);      // the identity head
  EXPECT_EQ(q.split(), 0u);
  // Per-channel scales are positive and no larger than max|w|/63 allows.
  for (size_t j = 0; j < 64; ++j) {
    EXPECT_GT(q.weight_scale(0, j), 0.0f);
  }
}

TEST(QuantizedMlpTest, ForwardRowEqualsSeedPrefixPlusSuffix) {
  // For one frozen object, ForwardRow(x) must be bit-identical to the cached
  // form SeedPrefix(x) + ForwardRowSuffix(x + split) — that equivalence is the
  // whole license for the policy's seed-once-evaluate-many pattern.
  Rng rng(108);
  MlpT<float> trunk = MakeTrunk(&rng);
  constexpr size_t kSplit = 16;
  QuantizedMlp q;
  q.FreezeFrom(trunk, kSplit);
  ASSERT_EQ(q.split(), kSplit);
  Rng data_rng(109);
  for (int rep = 0; rep < 16; ++rep) {
    std::vector<float> x(46);
    for (size_t i = 0; i < kSplit; ++i) {
      x[i] = static_cast<float>(data_rng.Uniform(-1.0, 1.0));  // tanh features
    }
    for (size_t i = kSplit; i < x.size(); ++i) {
      x[i] = static_cast<float>(data_rng.Uniform(-8.0, 8.0));
    }
    float y_whole = -7.0f;
    q.ForwardRow(x.data(), &y_whole);
    float y_cached = -8.0f;
    q.SeedPrefix(x.data());
    q.ForwardRowSuffix(x.data() + kSplit, &y_cached);
    EXPECT_EQ(y_cached, y_whole) << "rep " << rep;
    // And many suffix evaluations under one seed stay self-consistent.
    float y_again = -9.0f;
    q.ForwardRowSuffix(x.data() + kSplit, &y_again);
    EXPECT_EQ(y_again, y_cached) << "rep " << rep;
  }
}

TEST(QuantizedMlpTest, QuantizedForwardTracksFloatReference) {
  // End-to-end kernel error bound on the deployment trunk shape: random
  // trunks, realistic input magnitudes, |int8 - float32| on the scalar head
  // output stays within the activation-coding budget. (Not a bit contract —
  // this bounds the quantization error itself; the trained-checkpoint action
  // gate lives in rl_test.cc.)
  Rng rng(110);
  double max_err = 0.0;
  for (int model = 0; model < 4; ++model) {
    MlpT<float> trunk = MakeTrunk(&rng);
    QuantizedMlp q;
    q.FreezeFrom(trunk);
    Rng data_rng(111 + model);
    for (int rep = 0; rep < 64; ++rep) {
      std::vector<float> x(46);
      for (auto& v : x) {
        v = static_cast<float>(data_rng.Uniform(-2.0, 2.0));
      }
      float y_f = 0.0f;
      trunk.ForwardRow(x.data(), &y_f);
      float y_q = 0.0f;
      q.ForwardRow(x.data(), &y_q);
      max_err = std::max(max_err, std::fabs(static_cast<double>(y_q - y_f)));
    }
  }
  EXPECT_LT(max_err, 0.1) << "quantization error budget";
}

}  // namespace
}  // namespace mocc
