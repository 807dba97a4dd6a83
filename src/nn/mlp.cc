#include "src/nn/mlp.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <type_traits>

#include "src/nn/simd/dispatch.h"

namespace mocc {
namespace {

template <typename T>
T ActivationDerivativeFromOutput(Activation a, T y) {
  switch (a) {
    case Activation::kIdentity:
      return T(1);
    case Activation::kTanh:
      return T(1) - y * y;
    case Activation::kRelu:
      return y > T(0) ? T(1) : T(0);
  }
  return T(1);
}

}  // namespace

template <typename T>
void ApplyActivation(Activation a, T* data, size_t n) {
  switch (a) {
    case Activation::kTanh:
      // Runtime-dispatched FmaTanh sweep (src/nn/simd/dispatch.h): AVX2 lanes
      // on capable hosts, the bit-identical scalar reference elsewhere. The
      // kernel is elementwise with a per-element-identical tail, so batched and
      // per-row applications still match bit-for-bit at any length.
      simd::TanhArray(data, n);
      return;
    case Activation::kIdentity:
      return;
    case Activation::kRelu:
      for (size_t i = 0; i < n; ++i) {
        if (data[i] < T(0)) {
          data[i] = T(0);
        }
      }
      return;
  }
}

template <typename T>
void ApplyActivation(Activation a, MatrixT<T>* m) {
  ApplyActivation(a, m->data(), m->size());
}

template <typename T>
DenseLayerT<T>::DenseLayerT(size_t in_dim, size_t out_dim, Activation activation, Rng* rng)
    : weights_(in_dim, out_dim),
      bias_(1, out_dim),
      grad_weights_(in_dim, out_dim),
      grad_bias_(1, out_dim),
      activation_(activation) {
  weights_.FillXavier(rng);
}

template <typename T>
void DenseLayerT<T>::ForwardInto(const MatrixT<T>& x, MatrixT<T>* y) {
  assert(x.cols() == weights_.rows());
  assert(y != &x);
  MatMulBiasInto(x, weights_, bias_, y);
  ApplyActivation(activation_, y);
  fwd_input_ = &x;
  fwd_output_ = y;
}

template <typename T>
void DenseLayerT<T>::BackwardInto(const MatrixT<T>& grad_out, MatrixT<T>* grad_in,
                                  size_t grad_in_cols) {
  assert(fwd_input_ != nullptr && fwd_output_ != nullptr);
  assert(grad_out.rows() == fwd_output_->rows() && grad_out.cols() == fwd_output_->cols());
  assert(grad_in != &grad_out);
  // Push the gradient through the activation using the cached post-activation output.
  dpre_.CopyFrom(grad_out);
  const T* out = fwd_output_->data();
  T* g = dpre_.data();
  for (size_t i = 0; i < dpre_.size(); ++i) {
    g[i] *= ActivationDerivativeFromOutput(activation_, out[i]);
  }
  MatMulTransposeAAccumulate(*fwd_input_, dpre_, &grad_weights_);
  ColumnSumsAccumulate(dpre_, &grad_bias_);
  if (grad_in != nullptr) {
    MatMulTransposeBInto(dpre_, weights_, grad_in, grad_in_cols);
  }
}

template <typename T>
void DenseLayerT<T>::ForwardRow(const T* x, T* y) const {
  // The exact kernel the batched path runs per row (bit-for-bit identical).
  RowMatVecBias(x, weights_.data(), bias_.data(), y, weights_.rows(), weights_.cols());
  ApplyActivation(activation_, y, weights_.cols());
}

template <typename T>
void DenseLayerT<T>::ZeroGrad() {
  grad_weights_.Fill(T(0));
  grad_bias_.Fill(T(0));
}

template <typename T>
std::vector<ParamRefT<T>> DenseLayerT<T>::Params() {
  return {{&weights_, &grad_weights_}, {&bias_, &grad_bias_}};
}

template <typename T>
void DenseLayerT<T>::Serialize(BinaryWriter* w) const {
  w->WriteU64(weights_.rows());
  w->WriteU64(weights_.cols());
  w->WriteU32(static_cast<uint32_t>(activation_));
  // The on-disk format is scalar-type independent: always double. The training
  // (double) instantiation writes its storage directly; float widens through a
  // temporary (serialization is cold for the inference replica anyway).
  if constexpr (std::is_same_v<T, double>) {
    w->WriteDoubleVector(weights_.data(), weights_.size());
    w->WriteDoubleVector(bias_.data(), bias_.size());
  } else {
    w->WriteDoubleVector(
        std::vector<double>(weights_.storage().begin(), weights_.storage().end()));
    w->WriteDoubleVector(
        std::vector<double>(bias_.storage().begin(), bias_.storage().end()));
  }
}

template <typename T>
bool DenseLayerT<T>::Deserialize(BinaryReader* r) {
  const uint64_t rows = r->ReadU64();
  const uint64_t cols = r->ReadU64();
  const uint32_t act = r->ReadU32();
  if (!r->ok() || rows != weights_.rows() || cols != weights_.cols() ||
      act != static_cast<uint32_t>(activation_)) {
    return false;
  }
  const std::vector<double> w = r->ReadDoubleVector();
  const std::vector<double> b = r->ReadDoubleVector();
  if (!r->ok() || w.size() != weights_.size() || b.size() != bias_.size()) {
    return false;
  }
  // Copied (narrowed for float) into the layer's aligned storage.
  std::transform(w.begin(), w.end(), weights_.storage().begin(),
                 [](double v) { return static_cast<T>(v); });
  std::transform(b.begin(), b.end(), bias_.storage().begin(),
                 [](double v) { return static_cast<T>(v); });
  return true;
}

template <typename T>
MlpT<T>::MlpT(const std::vector<size_t>& dims, Activation hidden_activation,
              Activation output_activation, Rng* rng) {
  assert(dims.size() >= 2);
  for (size_t i = 0; i + 1 < dims.size(); ++i) {
    const bool last = (i + 2 == dims.size());
    layers_.emplace_back(dims[i], dims[i + 1], last ? output_activation : hidden_activation,
                         rng);
  }
}

template <typename T>
void MlpT<T>::ForwardInto(const MatrixT<T>& x, MatrixT<T>* y) {
  if (layers_.empty()) {
    y->CopyFrom(x);
    return;
  }
  // Stage the input so BackwardInto can reference it after the caller's `x` dies.
  input_cache_.CopyFrom(x);
  if (acts_.size() != layers_.size()) {
    acts_.resize(layers_.size());
  }
  const MatrixT<T>* cur = &input_cache_;
  for (size_t i = 0; i < layers_.size(); ++i) {
    layers_[i].ForwardInto(*cur, &acts_[i]);
    cur = &acts_[i];
  }
  y->CopyFrom(*cur);
}

template <typename T>
void MlpT<T>::BackwardInto(const MatrixT<T>& grad_out, MatrixT<T>* grad_in,
                           size_t grad_in_cols) {
  assert(!layers_.empty());
  // Ping-pong the inter-layer gradient through two workspaces; the first layer
  // writes the requested dL/dX columns straight into the caller's matrix.
  const MatrixT<T>* cur = &grad_out;
  MatrixT<T>* ping = &grad_ping_;
  MatrixT<T>* pong = &grad_pong_;
  for (size_t i = layers_.size(); i-- > 1;) {
    layers_[i].BackwardInto(*cur, ping);
    cur = ping;
    std::swap(ping, pong);
  }
  layers_[0].BackwardInto(*cur, grad_in, grad_in_cols);
}

template <typename T>
#if defined(__GNUC__)
__attribute__((flatten))
#endif
void MlpT<T>::ForwardRow(const T* in, T* out) const {
  assert(!layers_.empty());
  if (row_ping_.empty()) {
    // Layer shapes are fixed after construction/deserialization, so the scratch
    // rows are sized exactly once.
    const size_t scratch = MaxDim();
    row_ping_.resize(scratch);
    row_pong_.resize(scratch);
  }
  const T* cur = in;
  T* ping = row_ping_.data();
  T* pong = row_pong_.data();
  for (size_t i = 0; i < layers_.size(); ++i) {
    T* dst = (i + 1 == layers_.size()) ? out : ping;
    layers_[i].ForwardRow(cur, dst);
    cur = dst;
    std::swap(ping, pong);
  }
}

template <typename T>
void MlpT<T>::ForwardRow(const std::vector<T>& in, std::vector<T>* out) const {
  assert(in.size() == in_dim());
  out->resize(out_dim());
  ForwardRow(in.data(), out->data());
}

template <typename T>
void MlpT<T>::ForwardBatchRows(const T* in, size_t n, T* out) const {
  assert(!layers_.empty());
  if (n == 0) {
    return;
  }
  // Copy-free pipeline: the first layer reads `in` directly, the last writes
  // `out` directly, and only the interior layers ping-pong through the batch
  // scratch matrices.
  const T* cur = in;
  MatrixT<T>* ping = &batch_ping_;
  MatrixT<T>* pong = &batch_pong_;
  for (size_t i = 0; i < layers_.size(); ++i) {
    const DenseLayerT<T>& layer = layers_[i];
    const size_t layer_out = layer.weights().cols();
    T* dst;
    if (i + 1 == layers_.size()) {
      dst = out;
    } else {
      ping->Resize(n, layer_out);
      dst = ping->data();
    }
    MatMulBiasRowsInto(cur, n, layer.weights(), layer.bias(), dst);
    // Elementwise, so applying it over the flattened batch matches the per-row
    // application bit-for-bit.
    ApplyActivation(layer.activation(), dst, n * layer_out);
    cur = dst;
    std::swap(ping, pong);
  }
}

template <typename T>
MatrixT<T> MlpT<T>::Forward(const MatrixT<T>& x) {
  MatrixT<T> y;
  ForwardInto(x, &y);
  return y;
}

template <typename T>
MatrixT<T> MlpT<T>::Backward(const MatrixT<T>& grad_out) {
  MatrixT<T> g;
  BackwardInto(grad_out, &g);
  return g;
}

template <typename T>
void MlpT<T>::ZeroGrad() {
  for (auto& layer : layers_) {
    layer.ZeroGrad();
  }
}

template <typename T>
std::vector<ParamRefT<T>> MlpT<T>::Params() {
  std::vector<ParamRefT<T>> params;
  for (auto& layer : layers_) {
    for (auto& p : layer.Params()) {
      params.push_back(p);
    }
  }
  return params;
}

template <typename T>
size_t MlpT<T>::in_dim() const {
  return layers_.empty() ? 0 : layers_.front().in_dim();
}

template <typename T>
size_t MlpT<T>::out_dim() const {
  return layers_.empty() ? 0 : layers_.back().out_dim();
}

template <typename T>
size_t MlpT<T>::ParameterCount() const {
  size_t count = 0;
  for (const auto& layer : layers_) {
    count += layer.in_dim() * layer.out_dim() + layer.out_dim();
  }
  return count;
}

template <typename T>
size_t MlpT<T>::MaxDim() const {
  size_t max_dim = 0;
  for (const auto& layer : layers_) {
    max_dim = std::max({max_dim, layer.in_dim(), layer.out_dim()});
  }
  return max_dim;
}

template <typename T>
void MlpT<T>::CopyWeightsFrom(const MlpT& other) {
  assert(layers_.size() == other.layers_.size());
  auto* self = this;
  auto src = const_cast<MlpT&>(other).Params();
  auto dst = self->Params();
  assert(src.size() == dst.size());
  for (size_t i = 0; i < src.size(); ++i) {
    assert(src[i].value->size() == dst[i].value->size());
    dst[i].value->storage() = src[i].value->storage();
  }
}

template <typename T>
void MlpT<T>::SoftUpdateFrom(const MlpT& other, double tau) {
  auto src = const_cast<MlpT&>(other).Params();
  auto dst = Params();
  assert(src.size() == dst.size());
  for (size_t i = 0; i < src.size(); ++i) {
    T* d = dst[i].value->data();
    const T* s = src[i].value->data();
    for (size_t k = 0; k < dst[i].value->size(); ++k) {
      d[k] = static_cast<T>((1.0 - tau) * d[k] + tau * s[k]);
    }
  }
}

template <typename T>
void MlpT<T>::Serialize(BinaryWriter* w) const {
  w->WriteU64(layers_.size());
  for (const auto& layer : layers_) {
    layer.Serialize(w);
  }
}

template <typename T>
bool MlpT<T>::Deserialize(BinaryReader* r) {
  const uint64_t count = r->ReadU64();
  if (!r->ok() || count != layers_.size()) {
    return false;
  }
  for (auto& layer : layers_) {
    if (!layer.Deserialize(r)) {
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Explicit instantiations: double for training, float for deployment inference.
// ---------------------------------------------------------------------------
template class DenseLayerT<double>;
template class DenseLayerT<float>;
template class MlpT<double>;
template class MlpT<float>;
template void ApplyActivation<double>(Activation, double*, size_t);
template void ApplyActivation<float>(Activation, float*, size_t);
template void ApplyActivation<double>(Activation, MatrixT<double>*);
template void ApplyActivation<float>(Activation, MatrixT<float>*);

}  // namespace mocc
