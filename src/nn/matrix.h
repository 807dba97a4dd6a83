// Dense row-major matrix — the only tensor type used by the neural-network substrate.
// Sized for the small MLPs in this project (tens of thousands of parameters). The
// matrix is templated on its scalar type: training runs entirely on MatrixT<double>
// (aliased as Matrix, the historical name), while the float32 deployment-inference
// path (src/rl/inference_policy.h) runs the same kernels on MatrixT<float> — halving
// the weight bytes per inference and doubling the SIMD lanes without a second kernel
// implementation. Only these two scalar types are instantiated (see matrix.cc).
// Each multiply kernel documents its per-element arithmetic below, and every kernel
// has an out-parameter ("Into") variant so hot loops can run allocation-free in steady
// state: a matrix resized to a shape it has held before reuses its storage.
#ifndef MOCC_SRC_NN_MATRIX_H_
#define MOCC_SRC_NN_MATRIX_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

#include "src/common/rng.h"

namespace mocc {

// Allocator behind every matrix and activation buffer of the NN substrate:
// 64-byte aligned, one cache line. The SIMD kernels load weight rows whose
// widths are multiples of a vector, so with an aligned base no 512-bit (or
// 256-bit) load straddles two lines; with malloc's 16-byte alignment the
// split loads' cost depended on where each replica happened to land in the
// heap, and two identical replicas decided several percent apart. It
// over-allocates one line from plain operator new and keeps the offset in
// the byte before the aligned block: the aligned operator new (memalign)
// costs a split and a free per call, which showed in model and replica
// set-up times.
template <typename T>
struct AlignedAllocator {
  using value_type = T;
  static constexpr size_t kAlignment = 64;

  AlignedAllocator() = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U>&) noexcept {}

  T* allocate(size_t n) {
    unsigned char* raw =
        static_cast<unsigned char*>(::operator new(n * sizeof(T) + kAlignment));
    const size_t offset = kAlignment - reinterpret_cast<uintptr_t>(raw) % kAlignment;
    unsigned char* aligned = raw + offset;  // offset in [1, kAlignment]
    aligned[-1] = static_cast<unsigned char>(offset);
    return reinterpret_cast<T*>(aligned);
  }
  void deallocate(T* p, size_t /*n*/) noexcept {
    unsigned char* aligned = reinterpret_cast<unsigned char*>(p);
    ::operator delete(aligned - aligned[-1]);
  }

  template <typename U>
  bool operator==(const AlignedAllocator<U>&) const noexcept {
    return true;
  }
  template <typename U>
  bool operator!=(const AlignedAllocator<U>&) const noexcept {
    return false;
  }
};

template <typename T>
using AlignedVector = std::vector<T, AlignedAllocator<T>>;

template <typename T>
class MatrixT {
 public:
  using Scalar = T;

  MatrixT() = default;
  // Creates a rows x cols matrix filled with `fill`.
  MatrixT(size_t rows, size_t cols, T fill = T(0));

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  T& operator()(size_t r, size_t c) {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  T operator()(size_t r, size_t c) const {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  T* data() { return data_.data(); }
  const T* data() const { return data_.data(); }
  AlignedVector<T>& storage() { return data_; }
  const AlignedVector<T>& storage() const { return data_; }

  // Reshapes to rows x cols. Storage capacity is reused and never shrinks, so
  // resizing a workspace back to a previously-held shape allocates nothing.
  // Element values are unspecified after a shape change.
  void Resize(size_t rows, size_t cols);

  // Becomes an element-wise copy of `other` (Resize + copy; no allocation when
  // capacity suffices).
  void CopyFrom(const MatrixT& other);

  // Becomes an element-wise static_cast copy of a matrix with a different scalar
  // type — the double->float conversion behind the deployment inference path.
  template <typename U>
  void CastFrom(const MatrixT<U>& other) {
    Resize(other.rows(), other.cols());
    const U* src = other.data();
    for (size_t i = 0; i < data_.size(); ++i) {
      data_[i] = static_cast<T>(src[i]);
    }
  }

  // Sets every element to `v`.
  void Fill(T v);

  // Fills with N(0, stddev) draws.
  void FillNormal(Rng* rng, double stddev);

  // Fills with Xavier/Glorot-uniform draws for a (fan_in, fan_out) weight matrix,
  // appropriate for tanh activations.
  void FillXavier(Rng* rng);

  // Returns one row as a vector.
  std::vector<T> Row(size_t r) const;

  // Copies `values` (size == cols()) into row `r`.
  void SetRow(size_t r, const std::vector<T>& values);

  // Copies `values[0..cols())` into row `r`.
  void SetRow(size_t r, const T* values);

  // Pointer to the start of row `r`.
  T* RowPtr(size_t r) {
    assert(r < rows_);
    return data_.data() + r * cols_;
  }
  const T* RowPtr(size_t r) const {
    assert(r < rows_);
    return data_.data() + r * cols_;
  }

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  AlignedVector<T> data_;
};

// The historical name: the double-precision training matrix.
using Matrix = MatrixT<double>;

// Allocation-free kernels: the output is resized in place (capacity reuse) and the
// output must not alias either input. For a fixed output element, every kernel
// accumulates contributions in ascending reduction order, so results are
// bit-for-bit identical across batch sizes and blocking factors (per scalar type;
// float and double results differ by rounding, which the precision test harness
// bounds — tests/nn_float32_test.cc).

// C = A * B. Requires A.cols() == B.rows().
template <typename T>
void MatMulInto(const MatrixT<T>& a, const MatrixT<T>& b, MatrixT<T>* c);

// C = A * B + 1·bias: the dense-layer forward. Every output is an ascending-k
// fused chain acc = fma(a[k], b[k][j], acc) from zero, plus the bias (a
// 1 x B.cols() row vector); B.cols() == 1 uses the defined lane-split tree of
// scalar_kernels.inc instead. Rows run through the dispatched multi-row
// kernel simd::RowsMatVec (the single-row kernel RowMatVecBias per row when
// B.cols() == 1), whose contract is exactly that per-output chain, so batched
// and single-row forwards produce bit-identical values per row on every SIMD
// tier.
template <typename T>
void MatMulBiasInto(const MatrixT<T>& a, const MatrixT<T>& b, const MatrixT<T>& bias,
                    MatrixT<T>* c);

// Raw-pointer variant of MatMulBiasInto for caller-owned row-major buffers:
// C[m x B.cols()] = A[m x B.rows()] · B + 1·bias. This is the allocation- and
// copy-free core MatMulBiasInto forwards to; MlpT::ForwardBatchRows feeds each
// layer's input buffer to it directly instead of staging a MatrixT copy.
template <typename T>
void MatMulBiasRowsInto(const T* a, size_t m, const MatrixT<T>& b,
                        const MatrixT<T>& bias, T* c);

// y[0..out) = x[0..in) · w (in x out, row-major) + b[0..out), register-tiled:
// fixed-size accumulator blocks stay in SIMD registers across the reduction.
// Per output j the accumulation order is ascending k, then the bias (the seed's
// MatMul + AddRowBias order).
template <typename T>
void RowMatVecBias(const T* x, const T* w, const T* b, T* y, size_t in, size_t out);

// C = A * B^T over the leading n = min(b_rows, B.rows()) rows of B, so C is
// A.rows() x n: the backward pass's dL/dX = Δ·Wᵀ for the first n inputs only.
// Requires A.cols() == B.cols(). Every double output is an ascending-k sum of
// individually rounded products with no fma, ((0 + a0·b0) + a1·b1) + ..., run
// by the dispatched simd::MatMulUnfused on a staged copy of B^T; the value is
// the same on every SIMD tier and build, and independent of n. (float, which has
// no training caller, runs MatMulInto's loop on the staged copy.)
template <typename T>
void MatMulTransposeBInto(const MatrixT<T>& a, const MatrixT<T>& b, MatrixT<T>* c,
                          size_t b_rows = SIZE_MAX);

// C = A^T * B. Requires A.rows() == B.rows().
template <typename T>
void MatMulTransposeAInto(const MatrixT<T>& a, const MatrixT<T>& b, MatrixT<T>* c);

// C += A^T * B without materializing the product: the backward pass's dW. C must
// already be A.cols() x B.cols(). Register-tiled: each C tile stays in registers
// across all rows r, and every element runs the ascending-r chain
// c += a[r][i] * b[r][j] from its prior value. matrix.cc is built with the
// project's codegen flags, so each step is one fma where the build targets FMA
// hardware (-march=native) and a rounded multiply plus add otherwise: native and
// generic builds train to different bytes.
template <typename T>
void MatMulTransposeAAccumulate(const MatrixT<T>& a, const MatrixT<T>& b, MatrixT<T>* c);

// sums = column sums of `m` as a 1 x cols matrix.
template <typename T>
void ColumnSumsInto(const MatrixT<T>& m, MatrixT<T>* sums);

// sums += column sums of `m`. `sums` must already be 1 x m.cols().
template <typename T>
void ColumnSumsAccumulate(const MatrixT<T>& m, MatrixT<T>* sums);

// Allocating convenience wrappers around the Into kernels.
template <typename T>
MatrixT<T> MatMul(const MatrixT<T>& a, const MatrixT<T>& b);
template <typename T>
MatrixT<T> MatMulTransposeB(const MatrixT<T>& a, const MatrixT<T>& b);
template <typename T>
MatrixT<T> MatMulTransposeA(const MatrixT<T>& a, const MatrixT<T>& b);
template <typename T>
MatrixT<T> ColumnSums(const MatrixT<T>& m);

// a += scale * b, elementwise. Requires identical shapes.
template <typename T>
void AddScaled(MatrixT<T>* a, const MatrixT<T>& b, T scale = T(1));

// Adds row-vector `bias` (1 x cols) to every row of `m`.
template <typename T>
void AddRowBias(MatrixT<T>* m, const MatrixT<T>& bias);

// Elementwise product, in place: a ⊙= b.
template <typename T>
void HadamardInPlace(MatrixT<T>* a, const MatrixT<T>& b);

// Frobenius norm (accumulated in double regardless of T).
template <typename T>
double FrobeniusNorm(const MatrixT<T>& m);

// The kernels are instantiated for exactly these scalar types in matrix.cc.
extern template class MatrixT<double>;
extern template class MatrixT<float>;

}  // namespace mocc

#endif  // MOCC_SRC_NN_MATRIX_H_
