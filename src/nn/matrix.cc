#include "src/nn/matrix.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <type_traits>

#include "src/nn/simd/dispatch.h"

namespace mocc {
namespace {

// Reduction-dimension block size: a 64x64 double tile of B (32 KiB) stays in L1
// alongside the accumulator row (a float tile is half that).
constexpr size_t kBlock = 64;

}  // namespace

template <typename T>
MatrixT<T>::MatrixT(size_t rows, size_t cols, T fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

template <typename T>
void MatrixT<T>::Resize(size_t rows, size_t cols) {
  rows_ = rows;
  cols_ = cols;
  data_.resize(rows * cols);
}

template <typename T>
void MatrixT<T>::CopyFrom(const MatrixT& other) {
  if (this == &other) {
    return;
  }
  Resize(other.rows_, other.cols_);
  std::copy(other.data_.begin(), other.data_.end(), data_.begin());
}

template <typename T>
void MatrixT<T>::Fill(T v) {
  for (auto& x : data_) {
    x = v;
  }
}

template <typename T>
void MatrixT<T>::FillNormal(Rng* rng, double stddev) {
  for (auto& x : data_) {
    x = static_cast<T>(rng->Normal(0.0, stddev));
  }
}

template <typename T>
void MatrixT<T>::FillXavier(Rng* rng) {
  const double limit = std::sqrt(6.0 / static_cast<double>(rows_ + cols_));
  for (auto& x : data_) {
    x = static_cast<T>(rng->Uniform(-limit, limit));
  }
}

template <typename T>
std::vector<T> MatrixT<T>::Row(size_t r) const {
  assert(r < rows_);
  return std::vector<T>(data_.begin() + static_cast<ptrdiff_t>(r * cols_),
                        data_.begin() + static_cast<ptrdiff_t>((r + 1) * cols_));
}

template <typename T>
void MatrixT<T>::SetRow(size_t r, const std::vector<T>& values) {
  assert(r < rows_ && values.size() == cols_);
  std::copy(values.begin(), values.end(), data_.begin() + static_cast<ptrdiff_t>(r * cols_));
}

template <typename T>
void MatrixT<T>::SetRow(size_t r, const T* values) {
  assert(r < rows_);
  std::copy(values, values + cols_, data_.begin() + static_cast<ptrdiff_t>(r * cols_));
}

template <typename T>
void RowMatVecBias(const T* x, const T* w, const T* b, T* y, size_t in, size_t out) {
  // Runtime-dispatched (src/nn/simd/dispatch.h): AVX2+FMA / NEON when the CPU
  // has them, the bit-identical scalar reference otherwise. Every tier returns
  // the same bits (the dispatch layer's determinism contract), so callers'
  // reproducibility guarantees don't depend on which host runs the binary.
  simd::RowMatVecBias(x, w, b, y, in, out);
}

namespace {

// Shared inner kernel for MatMulInto/MatMulBiasInto: C (already initialized)
// += A * B, cache-blocked over the reduction dimension.
template <typename T>
void MatMulAccumulateRaw(const T* ad, const T* bd, T* cd, size_t m, size_t k_dim,
                         size_t n) {
  for (size_t k0 = 0; k0 < k_dim; k0 += kBlock) {
    const size_t k1 = std::min(k_dim, k0 + kBlock);
    for (size_t i = 0; i < m; ++i) {
      const T* arow = ad + i * k_dim;
      T* crow = cd + i * n;
      for (size_t k = k0; k < k1; ++k) {
        const T aik = arow[k];
        const T* brow = bd + k * n;
        for (size_t j = 0; j < n; ++j) {
          crow[j] += aik * brow[j];
        }
      }
    }
  }
}

}  // namespace

template <typename T>
void MatMulBiasRowsInto(const T* a, size_t m, const MatrixT<T>& b,
                        const MatrixT<T>& bias, T* c) {
  assert(bias.rows() == 1 && bias.cols() == b.cols());
  const size_t k_dim = b.rows();
  const size_t n = b.cols();
  const T* bd = b.data();
  const T* biasd = bias.data();
  if (n == 1) {
    // The out==1 contract is the row kernel's lane-split dot (matrix.h).
    for (size_t i = 0; i < m; ++i) {
      simd::RowMatVecBias(a + i * k_dim, bd, biasd, c + i, k_dim, n);
    }
    return;
  }
  // Wider layers: one multi-row kernel call, whose tiles share each weight
  // load across rows and keep more independent fma chains in flight than a
  // single row can. Every output is the row kernel's per-output chain, so a
  // batch row equals a single-row forward bit for bit on every tier.
  simd::RowsMatVec(a, k_dim, m, bd, /*seed=*/nullptr, biasd, c, n, k_dim, n);
}

template <typename T>
void MatMulBiasInto(const MatrixT<T>& a, const MatrixT<T>& b, const MatrixT<T>& bias,
                    MatrixT<T>* c) {
  assert(a.cols() == b.rows());
  assert(bias.rows() == 1 && bias.cols() == b.cols());
  assert(c != &a && c != &b && c != &bias);
  c->Resize(a.rows(), b.cols());
  MatMulBiasRowsInto(a.data(), a.rows(), b, bias, c->data());
}

template <typename T>
void MatMulInto(const MatrixT<T>& a, const MatrixT<T>& b, MatrixT<T>* c) {
  assert(a.cols() == b.rows());
  assert(c != &a && c != &b);
  const size_t m = a.rows();
  const size_t k_dim = a.cols();
  const size_t n = b.cols();
  c->Resize(m, n);
  T* cd = c->data();
  const T* ad = a.data();
  const T* bd = b.data();
  std::fill(cd, cd + m * n, T(0));
  MatMulAccumulateRaw(ad, bd, cd, m, k_dim, n);
}

template <typename T>
void MatMulTransposeBInto(const MatrixT<T>& a, const MatrixT<T>& b, MatrixT<T>* c,
                          size_t b_rows) {
  assert(a.cols() == b.cols());
  assert(c != &a && c != &b);
  const size_t m = a.rows();
  const size_t k_dim = a.cols();
  const size_t n = std::min(b_rows, b.rows());
  c->Resize(m, n);
  // Stage the leading n rows of B transposed (k_dim x n), so every row of C is
  // a sweep over contiguous output blocks. Per thread and capacity-reused:
  // steady-state calls allocate nothing.
  thread_local std::vector<T> bt;
  bt.resize(k_dim * n);
  const T* bd = b.data();
  for (size_t j = 0; j < n; ++j) {
    for (size_t k = 0; k < k_dim; ++k) {
      bt[k * n + j] = bd[j * k_dim + k];
    }
  }
  if constexpr (std::is_same_v<T, double>) {
    simd::MatMulUnfused(a.data(), bt.data(), c->data(), m, k_dim, n);
  } else {
    // float has no training caller; it shares MatMulInto's core.
    std::fill(c->data(), c->data() + c->size(), T(0));
    MatMulAccumulateRaw(a.data(), bt.data(), c->data(), m, k_dim, n);
  }
}

template <typename T>
void MatMulTransposeAInto(const MatrixT<T>& a, const MatrixT<T>& b, MatrixT<T>* c) {
  assert(a.rows() == b.rows());
  assert(c != &a && c != &b);
  c->Resize(a.cols(), b.cols());
  std::fill(c->data(), c->data() + c->size(), T(0));
  MatMulTransposeAAccumulate(a, b, c);
}

namespace {

// One TI x TJ tile of C += A^T * B, held in registers across every row r of A
// and B. Element (i, j) still runs its own chain c += a[r][i] * b[r][j] over
// ascending r from its prior value, so the tile shape never changes a bit.
template <size_t TI, size_t TJ, typename T>
inline void AccumulateTransposeATile(const T* ad, const T* bd, T* cd, size_t r_dim,
                                     size_t m, size_t n, size_t i0, size_t j0) {
  T acc[TI][TJ];
  for (size_t ii = 0; ii < TI; ++ii) {
    for (size_t jj = 0; jj < TJ; ++jj) {
      acc[ii][jj] = cd[(i0 + ii) * n + j0 + jj];
    }
  }
  for (size_t r = 0; r < r_dim; ++r) {
    const T* arow = ad + r * m + i0;
    const T* brow = bd + r * n + j0;
    for (size_t ii = 0; ii < TI; ++ii) {
      for (size_t jj = 0; jj < TJ; ++jj) {
        acc[ii][jj] += arow[ii] * brow[jj];
      }
    }
  }
  for (size_t ii = 0; ii < TI; ++ii) {
    for (size_t jj = 0; jj < TJ; ++jj) {
      cd[(i0 + ii) * n + j0 + jj] = acc[ii][jj];
    }
  }
}

template <size_t TI, typename T>
inline void AccumulateTransposeARows(const T* ad, const T* bd, T* cd, size_t r_dim,
                                     size_t m, size_t n, size_t i0) {
  size_t j0 = 0;
  for (; j0 + 8 <= n; j0 += 8) {
    AccumulateTransposeATile<TI, 8>(ad, bd, cd, r_dim, m, n, i0, j0);
  }
  for (; j0 < n; ++j0) {
    AccumulateTransposeATile<TI, 1>(ad, bd, cd, r_dim, m, n, i0, j0);
  }
}

}  // namespace

template <typename T>
void MatMulTransposeAAccumulate(const MatrixT<T>& a, const MatrixT<T>& b, MatrixT<T>* c) {
  assert(a.rows() == b.rows());
  assert(c->rows() == a.cols() && c->cols() == b.cols());
  assert(c != &a && c != &b);
  const size_t r_dim = a.rows();
  const size_t m = a.cols();
  const size_t n = b.cols();
  T* cd = c->data();
  const T* ad = a.data();
  const T* bd = b.data();
  size_t i0 = 0;
  for (; i0 + 4 <= m; i0 += 4) {
    AccumulateTransposeARows<4>(ad, bd, cd, r_dim, m, n, i0);
  }
  for (; i0 < m; ++i0) {
    AccumulateTransposeARows<1>(ad, bd, cd, r_dim, m, n, i0);
  }
}

template <typename T>
void ColumnSumsInto(const MatrixT<T>& m, MatrixT<T>* sums) {
  assert(sums != &m);
  sums->Resize(1, m.cols());
  std::fill(sums->data(), sums->data() + m.cols(), T(0));
  ColumnSumsAccumulate(m, sums);
}

template <typename T>
void ColumnSumsAccumulate(const MatrixT<T>& m, MatrixT<T>* sums) {
  assert(sums->rows() == 1 && sums->cols() == m.cols());
  T* s = sums->data();
  const T* d = m.data();
  const size_t cols = m.cols();
  for (size_t r = 0; r < m.rows(); ++r) {
    const T* row = d + r * cols;
    for (size_t c = 0; c < cols; ++c) {
      s[c] += row[c];
    }
  }
}

template <typename T>
MatrixT<T> MatMul(const MatrixT<T>& a, const MatrixT<T>& b) {
  MatrixT<T> c;
  MatMulInto(a, b, &c);
  return c;
}

template <typename T>
MatrixT<T> MatMulTransposeB(const MatrixT<T>& a, const MatrixT<T>& b) {
  MatrixT<T> c;
  MatMulTransposeBInto(a, b, &c);
  return c;
}

template <typename T>
MatrixT<T> MatMulTransposeA(const MatrixT<T>& a, const MatrixT<T>& b) {
  MatrixT<T> c;
  MatMulTransposeAInto(a, b, &c);
  return c;
}

template <typename T>
MatrixT<T> ColumnSums(const MatrixT<T>& m) {
  MatrixT<T> sums;
  ColumnSumsInto(m, &sums);
  return sums;
}

template <typename T>
void AddScaled(MatrixT<T>* a, const MatrixT<T>& b, T scale) {
  assert(a->rows() == b.rows() && a->cols() == b.cols());
  T* pa = a->data();
  const T* pb = b.data();
  for (size_t i = 0; i < a->size(); ++i) {
    pa[i] += scale * pb[i];
  }
}

template <typename T>
void AddRowBias(MatrixT<T>* m, const MatrixT<T>& bias) {
  assert(bias.rows() == 1 && bias.cols() == m->cols());
  const size_t cols = m->cols();
  const T* b = bias.data();
  for (size_t r = 0; r < m->rows(); ++r) {
    T* row = m->RowPtr(r);
    for (size_t c = 0; c < cols; ++c) {
      row[c] += b[c];
    }
  }
}

template <typename T>
void HadamardInPlace(MatrixT<T>* a, const MatrixT<T>& b) {
  assert(a->rows() == b.rows() && a->cols() == b.cols());
  T* pa = a->data();
  const T* pb = b.data();
  for (size_t i = 0; i < a->size(); ++i) {
    pa[i] *= pb[i];
  }
}

template <typename T>
double FrobeniusNorm(const MatrixT<T>& m) {
  double sum = 0.0;
  for (size_t i = 0; i < m.size(); ++i) {
    const double v = static_cast<double>(m.data()[i]);
    sum += v * v;
  }
  return std::sqrt(sum);
}

// ---------------------------------------------------------------------------
// Explicit instantiations: the NN substrate supports exactly double (training)
// and float (deployment inference).
// ---------------------------------------------------------------------------
#define MOCC_INSTANTIATE_MATRIX(T)                                                     \
  template class MatrixT<T>;                                                           \
  template void MatMulInto<T>(const MatrixT<T>&, const MatrixT<T>&, MatrixT<T>*);      \
  template void MatMulBiasInto<T>(const MatrixT<T>&, const MatrixT<T>&,                \
                                  const MatrixT<T>&, MatrixT<T>*);                     \
  template void MatMulBiasRowsInto<T>(const T*, size_t, const MatrixT<T>&,             \
                                      const MatrixT<T>&, T*);                          \
  template void RowMatVecBias<T>(const T*, const T*, const T*, T*, size_t, size_t);    \
  template void MatMulTransposeBInto<T>(const MatrixT<T>&, const MatrixT<T>&,          \
                                        MatrixT<T>*, size_t);                          \
  template void MatMulTransposeAInto<T>(const MatrixT<T>&, const MatrixT<T>&,          \
                                        MatrixT<T>*);                                  \
  template void MatMulTransposeAAccumulate<T>(const MatrixT<T>&, const MatrixT<T>&,    \
                                              MatrixT<T>*);                            \
  template void ColumnSumsInto<T>(const MatrixT<T>&, MatrixT<T>*);                     \
  template void ColumnSumsAccumulate<T>(const MatrixT<T>&, MatrixT<T>*);               \
  template MatrixT<T> MatMul<T>(const MatrixT<T>&, const MatrixT<T>&);                 \
  template MatrixT<T> MatMulTransposeB<T>(const MatrixT<T>&, const MatrixT<T>&);       \
  template MatrixT<T> MatMulTransposeA<T>(const MatrixT<T>&, const MatrixT<T>&);       \
  template MatrixT<T> ColumnSums<T>(const MatrixT<T>&);                                \
  template void AddScaled<T>(MatrixT<T>*, const MatrixT<T>&, T);                       \
  template void AddRowBias<T>(MatrixT<T>*, const MatrixT<T>&);                         \
  template void HadamardInPlace<T>(MatrixT<T>*, const MatrixT<T>&);                    \
  template double FrobeniusNorm<T>(const MatrixT<T>&);

MOCC_INSTANTIATE_MATRIX(double)
MOCC_INSTANTIATE_MATRIX(float)

#undef MOCC_INSTANTIATE_MATRIX

}  // namespace mocc
