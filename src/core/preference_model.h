// MOCC's policy model (Figure 2b / Figure 3): an actor-critic in which BOTH the actor
// and the critic are extended with a preference sub-network (PN). The PN feature-
// transforms the application weight vector w⃗; its output is concatenated with the
// g⃗(t,η) network-condition history and fed to the trunk MLP (hidden layers 64 and 32,
// tanh — §5). This is the structural change that lets one model recognize different
// application requirements and correlate them with the corresponding optimal rate
// control policies (§4.1).
#ifndef MOCC_SRC_CORE_PREFERENCE_MODEL_H_
#define MOCC_SRC_CORE_PREFERENCE_MODEL_H_

#include <memory>
#include <string>

#include "src/core/mocc_config.h"
#include "src/nn/mlp.h"
#include "src/rl/actor_critic.h"

namespace mocc {

class PreferenceActorCritic : public ActorCritic {
 public:
  // Observation layout: [w_thr, w_lat, w_loss, g(t-η+1), ..., g(t)] — the weight vector
  // in the first kWeightDim columns, then the flattened history.
  static constexpr size_t kWeightDim = 3;

  PreferenceActorCritic(const MoccConfig& config, Rng* rng);

  void Forward(const Matrix& obs, Matrix* mean, Matrix* value) override;
  void Backward(const Matrix& dmean, const Matrix& dvalue) override;
  // Fused single-observation inference (PN row pass + concat + trunk row pass);
  // zero allocation in steady state, bit-for-bit equal to a 1-row Forward. The PN
  // features depend only on the leading weight vector, which is constant across
  // monitor intervals in deployment, so they are cached per head and recomputed
  // only when w⃗ or the parameters change (see InvalidatePnCache).
  void ForwardRow(const std::vector<double>& obs, double* mean, double* value) override;
  void ForwardRowActor(const std::vector<double>& obs, double* mean) override;

  // Drops the cached PN features. Called internally by ZeroGrad, Deserialize and
  // (conservatively) Params() — the returned refs are mutable parameter handles —
  // so every parameter-mutation path invalidates automatically. Only code that
  // stashes ParamRefs and writes through them later, after an intervening
  // ForwardRow, would need to call this explicitly.
  void InvalidatePnCache();

  // Frozen float32 deployment replica (PreferenceFloat32Policy, including its own
  // PN feature cache). See ActorCritic::MakeFloat32Policy.
  std::unique_ptr<InferencePolicy> MakeFloat32Policy() const override;

  // Int8-quantized replica: the trunks run quantized (src/nn/qmlp.h), the tiny
  // preference nets stay float32 behind their cache. See ActorCritic::MakeInt8Policy.
  std::unique_ptr<InferencePolicy> MakeInt8Policy() const override;

  double log_std() const override { return log_std_(0, 0); }
  void set_log_std(double v) override { log_std_(0, 0) = v; }
  void AccumulateLogStdGrad(double g) override { log_std_grad_(0, 0) += g; }

  std::vector<ParamRef> Params() override;
  void ZeroGrad() override;
  size_t obs_dim() const override { return obs_dim_; }
  std::unique_ptr<ActorCritic> Clone() const override;

  const MoccConfig& config() const { return config_; }
  size_t ParameterCount() const;

  void Serialize(BinaryWriter* w) const;
  bool Deserialize(BinaryReader* r);

  // File helpers (magic "MOCCMODL"). Save returns false on I/O failure; Load returns
  // nullptr on missing/corrupt/architecture-mismatched files.
  bool SaveToFile(const std::string& path) const;
  static std::shared_ptr<PreferenceActorCritic> LoadFromFile(const std::string& path,
                                                             const MoccConfig& config);

 private:
  struct Head {
    Mlp preference_net;  // kWeightDim -> pn_hidden -> pn_out (tanh)
    Mlp trunk;           // (pn_out + history_dim) -> 64 -> 32 -> 1
    // Batched-pass workspaces (capacity reused across calls).
    Matrix weights_in;  // batch x kWeightDim slice of obs
    Matrix pn_out;
    Matrix concat;
    Matrix dpn;  // dL/d(PN features): the trunk's leading dL/dX columns
    // Single-row workspace: [PN features | history], pre-sized at construction.
    // The PN-feature prefix doubles as the cache for pn_cache_w.
    std::vector<double> concat_row;
    double pn_cache_w[kWeightDim] = {};
    bool pn_cache_valid = false;
  };

  void ForwardHeadInto(Head* head, const Matrix& obs, Matrix* out);
  void ForwardHeadRow(Head* head, const std::vector<double>& obs, double* out);
  void BackwardHead(Head* head, const Matrix& grad_out);

  MoccConfig config_;
  size_t obs_dim_;
  Head actor_;
  Head critic_;
  Matrix log_std_{1, 1};
  Matrix log_std_grad_{1, 1};
};

}  // namespace mocc

#endif  // MOCC_SRC_CORE_PREFERENCE_MODEL_H_
