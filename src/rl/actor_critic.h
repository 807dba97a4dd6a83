// Actor-critic model interface used by the PPO trainer, plus the plain MLP
// implementation that reproduces Aurora's single-objective policy network (Figure 2a).
// MOCC's preference-sub-network model (Figure 2b / Figure 3) implements the same
// interface in src/core/preference_model.h, so one PPO implementation trains both.
#ifndef MOCC_SRC_RL_ACTOR_CRITIC_H_
#define MOCC_SRC_RL_ACTOR_CRITIC_H_

#include <memory>
#include <vector>

#include "src/common/rng.h"
#include "src/common/serialization.h"
#include "src/nn/mlp.h"
#include "src/nn/matrix.h"

namespace mocc {

class InferencePolicy;  // src/rl/inference_policy.h

// A policy π(a|s) = N(mean(s), exp(log_std)²) together with a value estimate V(s).
// The action is one-dimensional (the rate-adjustment a_t of Eq. 1).
class ActorCritic {
 public:
  virtual ~ActorCritic() = default;

  // Batched forward pass: `obs` is batch x obs_dim; fills `mean` and `value`
  // (both batch x 1). Caches activations for the following Backward call.
  virtual void Forward(const Matrix& obs, Matrix* mean, Matrix* value) = 0;

  // Batched backward pass for the losses dL/dmean and dL/dvalue (batch x 1 each).
  // Accumulates gradients into the parameters.
  virtual void Backward(const Matrix& dmean, const Matrix& dvalue) = 0;

  // Global log standard deviation of the Gaussian policy (a single trained scalar).
  virtual double log_std() const = 0;
  virtual void set_log_std(double v) = 0;
  virtual void AccumulateLogStdGrad(double g) = 0;

  virtual std::vector<ParamRef> Params() = 0;
  virtual void ZeroGrad() = 0;
  virtual size_t obs_dim() const = 0;

  // Deep copy (weights included) for lock-free parallel rollout collection.
  virtual std::unique_ptr<ActorCritic> Clone() const = 0;

  // Single-observation inference fast path: fills π-mean and V for one observation
  // without batch matrices (zero allocation in steady state). Unlike Forward it does
  // NOT cache activations for Backward. Bit-for-bit identical to a 1-row batched
  // Forward. The base implementation falls back to the batched path; concrete
  // models override it with a fused single-row pass.
  virtual void ForwardRow(const std::vector<double>& obs, double* mean, double* value);

  // Actor-head-only single-observation inference: fills π-mean without touching
  // the critic. Evaluation/deployment control loops only consume the mean, and
  // the two heads are independent networks in every model here, so skipping the
  // critic halves the per-step inference cost. Bit-identical mean to ForwardRow.
  // The base implementation falls back to ForwardRow (computing and discarding
  // V); concrete models override it.
  virtual void ForwardRowActor(const std::vector<double>& obs, double* mean);

  // Convenience single-observation helpers. ActionMean runs the actor head only
  // (ForwardRowActor); Value runs both heads via ForwardRow.
  double ActionMean(const std::vector<double>& obs);
  double Value(const std::vector<double>& obs);

  // Builds a frozen float32 deployment replica of this model (weights converted
  // once; later training steps do NOT propagate). Returns nullptr for models
  // without a reduced-precision path; concrete models override. The replica is
  // independent, so callers may build one per flow/thread.
  virtual std::unique_ptr<InferencePolicy> MakeFloat32Policy() const;

  // Builds an int8-quantized deployment replica (src/nn/qmlp.h): float32
  // freeze plus per-layer symmetric weight quantization of the tanh layers.
  // Same nullability and independence contract as MakeFloat32Policy.
  virtual std::unique_ptr<InferencePolicy> MakeInt8Policy() const;
};

// Aurora-style model: two independent MLPs (actor, critic), two hidden layers of 64 and
// 32 tanh units (§5), identity output heads, and a trainable global log_std.
class MlpActorCritic : public ActorCritic {
 public:
  MlpActorCritic(size_t obs_dim, Rng* rng, std::vector<size_t> hidden = {64, 32},
                 double init_log_std = -1.0);

  void Forward(const Matrix& obs, Matrix* mean, Matrix* value) override;
  void Backward(const Matrix& dmean, const Matrix& dvalue) override;
  void ForwardRow(const std::vector<double>& obs, double* mean, double* value) override;
  void ForwardRowActor(const std::vector<double>& obs, double* mean) override;
  std::unique_ptr<InferencePolicy> MakeFloat32Policy() const override;
  std::unique_ptr<InferencePolicy> MakeInt8Policy() const override;

  double log_std() const override { return log_std_(0, 0); }
  void set_log_std(double v) override { log_std_(0, 0) = v; }
  void AccumulateLogStdGrad(double g) override { log_std_grad_(0, 0) += g; }

  std::vector<ParamRef> Params() override;
  void ZeroGrad() override;
  size_t obs_dim() const override { return obs_dim_; }
  std::unique_ptr<ActorCritic> Clone() const override;

  void Serialize(BinaryWriter* w) const;
  bool Deserialize(BinaryReader* r);

 private:
  size_t obs_dim_;
  std::vector<size_t> hidden_;
  Mlp actor_;
  Mlp critic_;
  Matrix log_std_{1, 1};
  Matrix log_std_grad_{1, 1};
};

}  // namespace mocc

#endif  // MOCC_SRC_RL_ACTOR_CRITIC_H_
