// Tier detection + table composition for the SIMD dispatch layer (dispatch.h).
#include "src/nn/simd/dispatch.h"

#include <cstdlib>

#include "src/nn/simd/kernel_tables.h"

namespace mocc {
namespace simd {
namespace {

constexpr int kTierCount = 5;

// Overlay: non-null entries of `tier` on top of `k`.
Kernels Overlay(Kernels k, const Kernels* tier) {
  if (tier == nullptr) {
    return k;
  }
  if (tier->row_matvec_bias_f32) k.row_matvec_bias_f32 = tier->row_matvec_bias_f32;
  if (tier->row_matvec_bias_f64) k.row_matvec_bias_f64 = tier->row_matvec_bias_f64;
  if (tier->rows_matvec_f32) k.rows_matvec_f32 = tier->rows_matvec_f32;
  if (tier->rows_matvec_f64) k.rows_matvec_f64 = tier->rows_matvec_f64;
  if (tier->tanh_array_f32) k.tanh_array_f32 = tier->tanh_array_f32;
  if (tier->tanh_array_f64) k.tanh_array_f64 = tier->tanh_array_f64;
  if (tier->int8_quantize_row) k.int8_quantize_row = tier->int8_quantize_row;
  if (tier->int8_row_gemv) k.int8_row_gemv = tier->int8_row_gemv;
  if (tier->int8_post_tanh) k.int8_post_tanh = tier->int8_post_tanh;
  if (tier->matmul_unfused_f64) k.matmul_unfused_f64 = tier->matmul_unfused_f64;
  return k;
}

// CPUID-only support check, independent of MOCC_FORCE_SCALAR (the test hook
// compares tiers in-process even when the active tier is pinned to scalar).
bool TierSupported(Tier tier) {
  switch (tier) {
    case Tier::kScalar:
      return true;
    case Tier::kSsse3:
#if defined(__x86_64__) || defined(__i386__)
      return kSsse3KernelTable != nullptr && __builtin_cpu_supports("ssse3");
#else
      return false;
#endif
    case Tier::kAvx2:
#if defined(__x86_64__) || defined(__i386__)
      return kAvx2KernelTable != nullptr && __builtin_cpu_supports("avx2") &&
             __builtin_cpu_supports("fma");
#else
      return false;
#endif
    case Tier::kNeon:
      return kNeonKernelTable != nullptr;
    case Tier::kAvx512:
#if defined(__x86_64__) || defined(__i386__)
      return kAvx512KernelTable != nullptr && TierSupported(Tier::kAvx2) &&
             __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512dq") &&
             __builtin_cpu_supports("avx512vl");
#else
      return false;
#endif
  }
  return false;
}

const Kernels* RawTable(Tier tier) {
  switch (tier) {
    case Tier::kScalar:
      return kScalarKernelTable;
    case Tier::kSsse3:
      return kSsse3KernelTable;
    case Tier::kAvx2:
      return kAvx2KernelTable;
    case Tier::kNeon:
      return kNeonKernelTable;
    case Tier::kAvx512:
      return kAvx512KernelTable;
  }
  return nullptr;
}

// The composed table of a supported tier: its own entries over the scalar
// reference, and for kAvx512 over the AVX2 table, so entries AVX-512 does not
// implement keep AVX2 speed.
Kernels Compose(Tier tier) {
  Kernels k = *kScalarKernelTable;
  if (tier == Tier::kAvx512) {
    k = Overlay(k, kAvx2KernelTable);
  }
  return Overlay(k, RawTable(tier));
}

struct Resolved {
  Tier tier;
  bool forced_scalar;
  Kernels composed[kTierCount];  // index = static_cast<int>(Tier)
  bool supported[kTierCount];
};

Resolved ResolveOnce() {
  Resolved r;
  const char* env = std::getenv("MOCC_FORCE_SCALAR");
  r.forced_scalar = env != nullptr && env[0] != '\0' && !(env[0] == '0' && env[1] == '\0');
  for (int t = 0; t < kTierCount; ++t) {
    const Tier tier = static_cast<Tier>(t);
    r.supported[t] = TierSupported(tier);
    r.composed[t] = r.supported[t] ? Compose(tier) : *kScalarKernelTable;
  }
  if (r.forced_scalar) {
    r.tier = Tier::kScalar;
  } else if (r.supported[static_cast<int>(Tier::kAvx512)]) {
    r.tier = Tier::kAvx512;
  } else if (r.supported[static_cast<int>(Tier::kAvx2)]) {
    r.tier = Tier::kAvx2;
  } else if (r.supported[static_cast<int>(Tier::kNeon)]) {
    r.tier = Tier::kNeon;
  } else if (r.supported[static_cast<int>(Tier::kSsse3)]) {
    r.tier = Tier::kSsse3;
  } else {
    r.tier = Tier::kScalar;
  }
  return r;
}

const Resolved& GetResolved() {
  static const Resolved resolved = ResolveOnce();
  return resolved;
}

}  // namespace

const char* TierName(Tier tier) {
  switch (tier) {
    case Tier::kScalar:
      return "scalar";
    case Tier::kSsse3:
      return "ssse3";
    case Tier::kAvx2:
      return "avx2";
    case Tier::kNeon:
      return "neon";
    case Tier::kAvx512:
      return "avx512";
  }
  return "unknown";
}

Tier ActiveTier() { return GetResolved().tier; }

const Kernels& Active() {
  const Resolved& r = GetResolved();
  return r.composed[static_cast<int>(r.tier)];
}

const Kernels* KernelsForTier(Tier tier) {
  const Resolved& r = GetResolved();
  const int t = static_cast<int>(tier);
  return r.supported[t] ? &r.composed[t] : nullptr;
}

bool ForcedScalar() { return GetResolved().forced_scalar; }

}  // namespace simd
}  // namespace mocc
