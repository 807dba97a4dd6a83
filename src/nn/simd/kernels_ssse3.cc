// SSSE3 tier: int8 GEMV only (pmaddubsw exists from SSSE3 on; the float
// kernels need FMA to honor the bit-exactness contract cheaply, so pre-AVX2
// hosts keep the scalar reference for those). Each 32-byte packed block is
// consumed as two 16-byte halves — outputs 8jb+0..3 then 8jb+4..7 — and the
// accumulation is exact integer arithmetic, identical to every other tier.
#include "src/nn/simd/kernel_tables.h"

#if defined(__x86_64__) || defined(__i386__)

#include <tmmintrin.h>

#include <cstdint>
#include <cstring>

namespace mocc {
namespace simd {
namespace {

void Ssse3Int8Gemv(const uint8_t* x, const int8_t* packed, size_t in_pad,
                   size_t out_pad, int32_t* acc) {
  const size_t quads = in_pad / 4;
  const size_t jblocks = out_pad / 8;
  const size_t stride = jblocks * 32;
  const __m128i ones = _mm_set1_epi16(1);
  for (size_t jb = 0; jb < jblocks; ++jb) {
    __m128i acc_lo = _mm_setzero_si128();
    __m128i acc_hi = _mm_setzero_si128();
    const int8_t* base = packed + jb * 32;
    for (size_t q = 0; q < quads; ++q) {
      uint32_t xq;
      std::memcpy(&xq, x + 4 * q, sizeof(xq));
      const __m128i xv = _mm_set1_epi32(static_cast<int32_t>(xq));
      const __m128i wlo =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(base + q * stride));
      const __m128i whi =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(base + q * stride + 16));
      acc_lo = _mm_add_epi32(acc_lo, _mm_madd_epi16(_mm_maddubs_epi16(xv, wlo), ones));
      acc_hi = _mm_add_epi32(acc_hi, _mm_madd_epi16(_mm_maddubs_epi16(xv, whi), ones));
    }
    _mm_storeu_si128(reinterpret_cast<__m128i*>(acc + jb * 8), acc_lo);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(acc + jb * 8 + 4), acc_hi);
  }
}

constexpr Kernels kTable = {
    nullptr, nullptr, nullptr, nullptr, nullptr,
    nullptr, nullptr, Ssse3Int8Gemv, nullptr, nullptr,
};

}  // namespace

const Kernels* const kSsse3KernelTable = &kTable;

}  // namespace simd
}  // namespace mocc

#else  // !x86

namespace mocc {
namespace simd {
const Kernels* const kSsse3KernelTable = nullptr;
}  // namespace simd
}  // namespace mocc

#endif
