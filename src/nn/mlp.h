// Multi-layer perceptron with manual backpropagation.
//
// The paper's policy and value networks are small fully-connected MLPs (two hidden layers
// of 64 and 32 units, tanh activations — §5). This module implements exactly that class of
// network: dense layers, forward/backward over mini-batches, parameter access for
// optimizers, and binary serialization. Composite models (the preference sub-network that
// feeds the trunk, Figure 3) chain Mlp::Backward gradients across sub-networks.
//
// The network is templated on its scalar type. Training runs on MlpT<double> (aliased
// as Mlp, the historical name); the float32 deployment-inference path runs MlpT<float>
// replicas built with CastFrom (src/rl/inference_policy.h). Both instantiations share
// every kernel, workspace-reuse strategy and activation implementation; serialization
// always stores double on disk, so a float network can round-trip the same files.
//
// Two execution paths are provided:
//  * Batched, allocation-free: ForwardInto/BackwardInto write into caller-owned
//    matrices and stage activations in per-network workspace buffers, so steady-state
//    training touches the allocator zero times. The legacy Forward/Backward wrappers
//    (which return fresh matrices) remain for convenience and tests.
//  * Fused single-row inference: ForwardRow evaluates one observation with plain
//    dot-product loops, skipping all batch machinery. This is the per-packet/per-MI
//    policy-inference fast path (Figure 17's overhead budget). Its result is
//    bit-for-bit identical to a 1-row batched Forward.
//
// Thread safety: one Mlp instance must not be used from two threads at once (the
// workspaces, including ForwardRow's scratch rows, are per-instance). Parallel rollout
// collection clones the network per thread instead (ActorCritic::Clone).
#ifndef MOCC_SRC_NN_MLP_H_
#define MOCC_SRC_NN_MLP_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/common/serialization.h"
#include "src/nn/matrix.h"

namespace mocc {

enum class Activation {
  kIdentity,
  kTanh,
  kRelu,
};

// A trainable tensor together with its gradient accumulator.
template <typename T>
struct ParamRefT {
  MatrixT<T>* value = nullptr;
  MatrixT<T>* grad = nullptr;
};

// The historical name: the double-precision parameter handle (optimizers train in
// double only).
using ParamRef = ParamRefT<double>;

// One fully-connected layer: Y = act(X * W + b).
template <typename T>
class DenseLayerT {
 public:
  DenseLayerT(size_t in_dim, size_t out_dim, Activation activation, Rng* rng);

  // Builds a layer whose weights are a static_cast copy of `other` (gradients are
  // zeroed) — the double->float conversion behind the deployment inference path.
  template <typename U>
  static DenseLayerT CastFrom(const DenseLayerT<U>& other) {
    DenseLayerT layer;
    layer.activation_ = other.activation();
    layer.weights_.CastFrom(other.weights());
    layer.bias_.CastFrom(other.bias());
    layer.grad_weights_.Resize(layer.weights_.rows(), layer.weights_.cols());
    layer.grad_bias_.Resize(1, layer.bias_.cols());
    layer.grad_weights_.Fill(T(0));
    layer.grad_bias_.Fill(T(0));
    return layer;
  }

  // Allocation-free forward pass over a batch (rows = samples) into `y` (resized,
  // capacity reused). Keeps pointers to `x` and `y` for the following BackwardInto,
  // so both must stay alive and unmodified until then.
  void ForwardInto(const MatrixT<T>& x, MatrixT<T>* y);

  // Allocation-free backward pass: accumulates dW/db and writes dL/dX for the
  // leading `grad_in_cols` input columns (all by default) into `grad_in`, which
  // becomes batch x min(grad_in_cols, in_dim()) and must not alias `grad_out`. A
  // null `grad_in` skips dL/dX. What is asked of dL/dX never changes the
  // parameter gradients, and a limited dL/dX equals the leading columns of the
  // full one bit for bit. Must follow a ForwardInto with the matching batch.
  void BackwardInto(const MatrixT<T>& grad_out, MatrixT<T>* grad_in,
                    size_t grad_in_cols = SIZE_MAX);

  // Fused single-row inference: y[0..out_dim()) = act(x · W + b), where x has
  // in_dim() elements. Pure (no caching); bit-for-bit equal to a 1-row ForwardInto.
  void ForwardRow(const T* x, T* y) const;

  void ZeroGrad();
  std::vector<ParamRefT<T>> Params();

  size_t in_dim() const { return weights_.rows(); }
  size_t out_dim() const { return weights_.cols(); }
  Activation activation() const { return activation_; }
  const MatrixT<T>& weights() const { return weights_; }
  const MatrixT<T>& bias() const { return bias_; }

  // On-disk layout stores doubles regardless of T, so float replicas read/write the
  // exact files the double training path produces (values are narrowed on read).
  void Serialize(BinaryWriter* w) const;
  bool Deserialize(BinaryReader* r);

 private:
  DenseLayerT() = default;  // for CastFrom
  template <typename U>
  friend class DenseLayerT;

  MatrixT<T> weights_;  // in_dim x out_dim
  MatrixT<T> bias_;     // 1 x out_dim
  MatrixT<T> grad_weights_;
  MatrixT<T> grad_bias_;
  Activation activation_ = Activation::kIdentity;
  // Forward state for BackwardInto (non-owning; set by ForwardInto).
  const MatrixT<T>* fwd_input_ = nullptr;
  const MatrixT<T>* fwd_output_ = nullptr;
  // Workspaces (capacity reused across calls).
  MatrixT<T> dpre_;  // grad wrt pre-activation
};

// Fully-connected network: a stack of DenseLayers.
template <typename T>
class MlpT {
 public:
  MlpT() = default;

  // Builds a network with the given layer widths; `dims` = {in, h1, ..., out}. All hidden
  // layers use `hidden_activation`; the final layer uses `output_activation`.
  MlpT(const std::vector<size_t>& dims, Activation hidden_activation,
       Activation output_activation, Rng* rng);

  // Rebuilds this network as a static_cast copy of a network with a different scalar
  // type (same architecture, converted weights, zeroed gradients and workspaces) —
  // MlpT<float>().CastFrom(trained_double_net) is the deployment conversion.
  template <typename U>
  void CastFrom(const MlpT<U>& other) {
    layers_.clear();
    layers_.reserve(other.layers_.size());
    for (const auto& layer : other.layers_) {
      layers_.push_back(DenseLayerT<T>::CastFrom(layer));
    }
    acts_.clear();
    row_ping_.clear();
    row_pong_.clear();
    batch_ping_.Resize(0, 0);
    batch_pong_.Resize(0, 0);
  }

  // Allocation-free batched forward pass (rows = samples, cols = in_dim) into `y`.
  // The input is staged into a per-network buffer, so `x` need not outlive the call.
  void ForwardInto(const MatrixT<T>& x, MatrixT<T>* y);

  // Allocation-free batched backward pass from dL/dY; accumulates parameter
  // gradients and writes dL/dX into `grad_in` so callers can chain into upstream
  // sub-networks. As for DenseLayerT::BackwardInto, only the leading
  // `grad_in_cols` columns of dL/dX are computed, and none when `grad_in` is
  // null; interior layers always pass their full gradient on. Must follow a
  // ForwardInto with the matching batch.
  void BackwardInto(const MatrixT<T>& grad_out, MatrixT<T>* grad_in,
                    size_t grad_in_cols = SIZE_MAX);

  // Fused single-row inference: out[0..out_dim()) from in[0..in_dim()). Uses
  // per-network scratch rows (zero allocation in steady state); bit-for-bit equal
  // to a 1-row batched forward. Does NOT cache activations for BackwardInto.
  void ForwardRow(const T* in, T* out) const;
  void ForwardRow(const std::vector<T>& in, std::vector<T>* out) const;

  // Inference over n packed rows (in = n x in_dim(), out = n x out_dim(), both
  // row-major, caller-owned): the serving batch path. One MatMulBiasInto per layer
  // amortizes the weight-matrix reads across the batch; every output row is
  // bit-for-bit equal to ForwardRow on the same input row (the kernels share the
  // per-element accumulation recipe — see matrix.h). Uses per-network scratch
  // matrices (zero allocation in steady state); does NOT cache activations for
  // BackwardInto. Same single-thread contract as ForwardRow.
  void ForwardBatchRows(const T* in, size_t n, T* out) const;

  // Legacy allocating wrappers around the Into paths.
  MatrixT<T> Forward(const MatrixT<T>& x);
  MatrixT<T> Backward(const MatrixT<T>& grad_out);

  void ZeroGrad();
  std::vector<ParamRefT<T>> Params();

  size_t in_dim() const;
  size_t out_dim() const;
  size_t ParameterCount() const;

  // Widest layer boundary (max over in/out dims); sizes ForwardRow scratch.
  size_t MaxDim() const;

  // Read-only per-layer access for deployment-side specializations that walk
  // the stack themselves (the float32 policy's cached-prefix trunk forward,
  // the int8 quantizer's freeze pass).
  size_t layer_count() const { return layers_.size(); }
  const DenseLayerT<T>& layer(size_t i) const { return layers_[i]; }

  // Copies all weights from `other`; shapes must match.
  void CopyWeightsFrom(const MlpT& other);

  // Weights := (1-tau)*weights + tau*other (Polyak averaging; used by DQN target nets).
  void SoftUpdateFrom(const MlpT& other, double tau);

  // On-disk layout stores doubles regardless of T (see DenseLayerT).
  void Serialize(BinaryWriter* w) const;
  bool Deserialize(BinaryReader* r);

 private:
  template <typename U>
  friend class MlpT;

  std::vector<DenseLayerT<T>> layers_;
  // Workspaces (capacity reused across calls; see thread-safety note above).
  MatrixT<T> input_cache_;
  std::vector<MatrixT<T>> acts_;  // per-layer outputs of the last ForwardInto
  MatrixT<T> grad_ping_;
  MatrixT<T> grad_pong_;
  mutable AlignedVector<T> row_ping_;
  mutable AlignedVector<T> row_pong_;
  mutable MatrixT<T> batch_ping_;  // ForwardBatchRows staging
  mutable MatrixT<T> batch_pong_;
};

// The historical names: the double-precision training network.
using DenseLayer = DenseLayerT<double>;
using Mlp = MlpT<double>;

// Applies the activation elementwise.
template <typename T>
void ApplyActivation(Activation a, T* data, size_t n);
template <typename T>
void ApplyActivation(Activation a, MatrixT<T>* m);

// Instantiated for exactly double (training) and float (inference) in mlp.cc.
extern template class DenseLayerT<double>;
extern template class DenseLayerT<float>;
extern template class MlpT<double>;
extern template class MlpT<float>;

}  // namespace mocc

#endif  // MOCC_SRC_NN_MLP_H_
