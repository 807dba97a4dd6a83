// Float32 deployment-side policy inference.
//
// Training is double-precision end to end (gradients through FastTanh need the
// headroom), but the deployed per-MI control loop only ever runs single-row
// forward passes — Figure 17's overhead budget. An InferencePolicy is a frozen
// float32 replica of a trained ActorCritic: half the weight bytes per inference
// (the whole Figure-3 model drops under L1 size) and twice the SIMD lanes through
// the identical dispatched mat-vec/FastTanh kernels, at the cost of float
// rounding that the precision test harness bounds (tests/nn_float32_test.cc,
// tests/rl_test.cc parity suite, tests/golden_inference_test.cc). Batches
// (ActionMeansF32, the serving layer's path) run every layer with more than
// one output through the multi-row kernel simd::RowsMatVec, and the preference
// replica seeds its first layer per run of equal weight prefix from the
// cached PN slice; a batch row equals a single-row call bit for bit.
//
// Concrete backends exist for both model families: MlpFloat32Policy mirrors
// MlpActorCritic (two independent MLPs), PreferenceFloat32Policy mirrors the
// Figure-3 preference model including its PN feature cache (the PN features depend
// only on the leading weight vector, which is constant across monitor intervals in
// deployment). Models hand out their replica through ActorCritic::MakeFloat32Policy.
//
// Thread safety: one InferencePolicy must not be used from two threads at once,
// even for const-looking queries (scratch rows, batch workspaces and the PN cache
// are per-instance). Sequential use from different threads with external ordering
// is fine. The serving layer shares one replica across every attached connection
// and serializes all calls through its poll loop; anything else must clone its
// own replica (the conversion is cheap next to a single rollout). Debug builds
// enforce the contract with an assert on a reentrancy flag; release builds carry
// the flag but skip the check.
#ifndef MOCC_SRC_RL_INFERENCE_POLICY_H_
#define MOCC_SRC_RL_INFERENCE_POLICY_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/nn/mlp.h"
#include "src/nn/qmlp.h"

namespace mocc {

// Inference precision of a deployed policy. kFloat32 runs per-MI decisions
// through the frozen float32 replica below; kInt8 additionally quantizes the
// replica's tanh layers to offset-64 int8 codes (src/nn/qmlp.h) and runs the
// maddubs-style integer GEMV; kDouble keeps the training-precision path.
// Defined here (not in core/policy_spec.h, which re-exports it) so the
// controller layer can carry it without an include cycle.
enum class Precision {
  kDouble,
  kFloat32,
  kInt8,
};

// A frozen float32 single-observation policy: the deployment counterpart of
// ActorCritic::ForwardRow. Observations arrive as double (the env/controller
// representation); they are narrowed once into a per-instance scratch row, the
// whole network then runs in float32, and the two scalar heads are widened back.
class InferencePolicy {
 public:
  virtual ~InferencePolicy() = default;

  // Single-observation fused inference through the float32 replica. Zero
  // allocation in steady state.
  void ForwardRow(const std::vector<double>& obs, double* mean, double* value);

  // Deterministic (mean-action) policy — the deployment control signal. Runs
  // the actor head only (the critic is dead weight in a control loop), halving
  // the per-step cost; the mean is bit-identical to ForwardRow's.
  double ActionMean(const std::vector<double>& obs);

  // Actor-only mean for one already-narrowed float32 observation row (the
  // serving layer narrows straight out of its slab, skipping the double vector).
  float ActionMeanF32(const float* obs);

  // Batched actor-only means: `obs` is n packed rows of obs_dim() floats, `means`
  // receives n values. Every output is bit-identical to n sequential
  // ActionMeanF32 calls on the same rows starting from the same cache state (the
  // contract tests/serving_test.cc pins down); backends override to amortize
  // weight reads across the batch.
  void ActionMeansF32(const float* obs, size_t n, float* means);

  virtual size_t obs_dim() const = 0;

  // The trained global log standard deviation, carried over for consumers that
  // sample (kept in double; it is not on the per-inference fast path).
  double log_std() const { return log_std_; }

 protected:
  explicit InferencePolicy(double log_std) : log_std_(log_std) {}

  // The float32 fast path; `obs` has obs_dim() narrowed elements.
  virtual void ForwardRowF32(const float* obs, float* mean, float* value) = 0;

  // Actor-only float32 fast path; the default computes and discards the value.
  virtual void ForwardRowF32Actor(const float* obs, float* mean) {
    float value = 0.0f;
    ForwardRowF32(obs, mean, &value);
  }

  // Batched actor-only fast path; the default loops the single-row kernel so
  // every backend satisfies the bit-identity contract by construction.
  virtual void ForwardBatchF32Actor(const float* obs, size_t n, float* means) {
    for (size_t i = 0; i < n; ++i) {
      ForwardRowF32Actor(obs + i * obs_dim(), means + i);
    }
  }

  // Reentrancy flag behind the debug single-thread assert. Present in all builds
  // (a release/debug ABI split on a virtual class invites ODR trouble); only
  // checked when NDEBUG is off.
  std::atomic<bool> scratch_in_use_{false};

 private:
  // Narrows `obs` into the per-instance scratch row and returns it.
  const float* NarrowObs(const std::vector<double>& obs);

  double log_std_;
  std::vector<float> obs_f32_;  // narrowing scratch (capacity reused)
};

// Float32 replica of MlpActorCritic: two independent MLPs (actor, critic).
// With int8 = true, both networks are additionally frozen into QuantizedMlp
// form and every forward runs the int8 path (same bit-stable-across-tiers
// guarantee, quantization error bounded by the rl_test parity harness).
class MlpFloat32Policy : public InferencePolicy {
 public:
  // Builds the replica by casting the trained double networks.
  MlpFloat32Policy(const MlpT<double>& actor, const MlpT<double>& critic, double log_std,
                   bool int8 = false);

  size_t obs_dim() const override { return actor_.in_dim(); }

 protected:
  void ForwardRowF32(const float* obs, float* mean, float* value) override;
  void ForwardRowF32Actor(const float* obs, float* mean) override;
  void ForwardBatchF32Actor(const float* obs, size_t n, float* means) override;

 private:
  MlpT<float> actor_;
  MlpT<float> critic_;
  bool int8_ = false;
  QuantizedMlp qactor_;
  QuantizedMlp qcritic_;
};

// Float32 replica of the Figure-3 preference model: per head a PN + trunk pair
// plus the PN feature cache keyed on the leading weight vector, mirroring
// PreferenceActorCritic::ForwardRow. The cache needs no invalidation hook: the
// replica's weights are frozen at construction, so the features only change when
// w⃗ changes.
class PreferenceFloat32Policy : public InferencePolicy {
 public:
  // (pn, trunk) per head, cast from the trained double networks. `weight_dim` is
  // the w⃗ prefix length of the observation; `hist_dim` the g⃗(t,η) suffix length.
  // With int8 = true the trunks run quantized (src/nn/qmlp.h); the tiny PNs
  // stay float32 behind their cache, where quantization would only add error.
  PreferenceFloat32Policy(const MlpT<double>& actor_pn, const MlpT<double>& actor_trunk,
                          const MlpT<double>& critic_pn, const MlpT<double>& critic_trunk,
                          size_t weight_dim, size_t hist_dim, double log_std,
                          bool int8 = false);

  size_t obs_dim() const override { return weight_dim_ + hist_dim_; }

  // Drops the cached PN features (testing hook; deployment never needs it).
  void InvalidatePnCache();

  // How many times the actor PN ran because the leading weight vector changed
  // (cache misses). The serving layer sorts its batch by weight prefix so this
  // counts distinct prefixes per batch; the serving tests assert on it.
  int64_t pn_recompute_count() const { return pn_recompute_count_; }

 protected:
  void ForwardRowF32(const float* obs, float* mean, float* value) override;
  void ForwardRowF32Actor(const float* obs, float* mean) override;
  void ForwardBatchF32Actor(const float* obs, size_t n, float* means) override;

 private:
  struct Head {
    MlpT<float> pn;
    MlpT<float> trunk;
    // Single-row workspace: [PN features | history]. The PN-feature prefix
    // doubles as the cache for pn_cache_w (the concat rows of the int8 and
    // out0 == 1 paths stage from it; the float32 trunk walk reads only
    // l0_partial).
    AlignedVector<float> concat_row;
    std::vector<float> pn_cache_w;
    bool pn_cache_valid = false;
    // Trunk layer-0 accumulators over the PN feature slice, cached alongside
    // the PN features: the float32 trunk walk resumes these chains over the
    // history slice only (simd::RowsMatVec with a seed), skipping weight_dim
    // columns' worth of first-layer multiplies per row. Bit-identical to the
    // full evaluation because a seeded resume executes the same per-output
    // fma sequence.
    AlignedVector<float> l0_partial;
    // Ping/pong activations for the trunk walk: n rows x trunk.MaxDim(),
    // grown to the largest batch seen (capacity reused).
    AlignedVector<float> scratch0;
    AlignedVector<float> scratch1;
    // Int8-mode quantized trunk (unused in float32 mode).
    QuantizedMlp qtrunk;
  };

  // The one trunk forward for rows and batches: `out` receives n x
  // trunk.out_dim() values for n packed observation rows. float32 walks runs
  // of equal weight prefix (refreshing the PN cache on a change), runs layer
  // 0 over each run's history columns straight out of `obs`, seeded from
  // l0_partial, then the wider layers over the whole batch; the int8 and
  // out0 == 1 paths go row by row. Every output row is bit-identical to an
  // n = 1 call on the same cache state.
  void ForwardHead(Head* head, const float* obs, size_t n, float* out);

  // Whether `obs`'s weight prefix is the one head's PN cache holds.
  bool PnHit(const Head& head, const float* obs) const;

  // Recomputes head->concat_row's PN prefix and the cached l0_partial from the
  // weight prefix of `obs`, and re-keys pn_cache_w.
  void RefreshPnCache(Head* head, const float* obs);

  size_t weight_dim_;
  size_t pn_out_;
  size_t hist_dim_;
  bool int8_ = false;
  Head actor_;
  Head critic_;
  int64_t pn_recompute_count_ = 0;
};

}  // namespace mocc

#endif  // MOCC_SRC_RL_INFERENCE_POLICY_H_
