#include "src/rl/inference_policy.h"

#include <algorithm>
#include <cassert>

#include "src/nn/simd/dispatch.h"

namespace mocc {
namespace {

// Debug enforcement of the single-thread scratch contract (see the header): every
// public entry point flips the reentrancy flag for its duration; two overlapping
// calls — concurrent threads, or reentry from a virtual override — trip the
// assert. Release builds (NDEBUG) keep the flag but skip the exchange entirely.
#ifndef NDEBUG
class ScratchGuard {
 public:
  explicit ScratchGuard(std::atomic<bool>* flag) : flag_(flag) {
    const bool was_in_use = flag_->exchange(true, std::memory_order_acquire);
    assert(!was_in_use &&
           "InferencePolicy scratch state entered concurrently: one instance must "
           "not be used from two threads at once (clone a replica per thread)");
    (void)was_in_use;
  }
  ~ScratchGuard() { flag_->store(false, std::memory_order_release); }

 private:
  std::atomic<bool>* flag_;
};
#define MOCC_SCRATCH_GUARD(flag) ScratchGuard scratch_guard_(flag)
#else
#define MOCC_SCRATCH_GUARD(flag) (void)(flag)
#endif

}  // namespace

const float* InferencePolicy::NarrowObs(const std::vector<double>& obs) {
  assert(obs.size() == obs_dim());
  obs_f32_.resize(obs.size());
  for (size_t i = 0; i < obs.size(); ++i) {
    obs_f32_[i] = static_cast<float>(obs[i]);
  }
  return obs_f32_.data();
}

void InferencePolicy::ForwardRow(const std::vector<double>& obs, double* mean,
                                 double* value) {
  MOCC_SCRATCH_GUARD(&scratch_in_use_);
  float m = 0.0f;
  float v = 0.0f;
  ForwardRowF32(NarrowObs(obs), &m, &v);
  *mean = static_cast<double>(m);
  *value = static_cast<double>(v);
}

double InferencePolicy::ActionMean(const std::vector<double>& obs) {
  MOCC_SCRATCH_GUARD(&scratch_in_use_);
  float mean = 0.0f;
  ForwardRowF32Actor(NarrowObs(obs), &mean);
  return static_cast<double>(mean);
}

float InferencePolicy::ActionMeanF32(const float* obs) {
  MOCC_SCRATCH_GUARD(&scratch_in_use_);
  float mean = 0.0f;
  ForwardRowF32Actor(obs, &mean);
  return mean;
}

void InferencePolicy::ActionMeansF32(const float* obs, size_t n, float* means) {
  MOCC_SCRATCH_GUARD(&scratch_in_use_);
  ForwardBatchF32Actor(obs, n, means);
}

MlpFloat32Policy::MlpFloat32Policy(const MlpT<double>& actor, const MlpT<double>& critic,
                                   double log_std, bool int8)
    : InferencePolicy(log_std), int8_(int8) {
  actor_.CastFrom(actor);
  critic_.CastFrom(critic);
  if (int8_) {
    qactor_.FreezeFrom(actor_);
    qcritic_.FreezeFrom(critic_);
  }
}

void MlpFloat32Policy::ForwardRowF32(const float* obs, float* mean, float* value) {
  if (int8_) {
    qactor_.ForwardRow(obs, mean);
    qcritic_.ForwardRow(obs, value);
    return;
  }
  actor_.ForwardRow(obs, mean);
  critic_.ForwardRow(obs, value);
}

void MlpFloat32Policy::ForwardRowF32Actor(const float* obs, float* mean) {
  if (int8_) {
    qactor_.ForwardRow(obs, mean);
    return;
  }
  actor_.ForwardRow(obs, mean);
}

void MlpFloat32Policy::ForwardBatchF32Actor(const float* obs, size_t n, float* means) {
  if (int8_) {
    // The quantized path has no batched kernel (the first layer's dynamic
    // input scale is per-row anyway); the loop keeps the batch-vs-row
    // bit-identity contract structural.
    for (size_t i = 0; i < n; ++i) {
      qactor_.ForwardRow(obs + i * obs_dim(), means + i);
    }
    return;
  }
  // actor out_dim is 1 (the scalar action mean), so the batch output lands
  // directly in `means`.
  actor_.ForwardBatchRows(obs, n, means);
}

PreferenceFloat32Policy::PreferenceFloat32Policy(
    const MlpT<double>& actor_pn, const MlpT<double>& actor_trunk,
    const MlpT<double>& critic_pn, const MlpT<double>& critic_trunk, size_t weight_dim,
    size_t hist_dim, double log_std, bool int8)
    : InferencePolicy(log_std),
      weight_dim_(weight_dim),
      pn_out_(actor_pn.out_dim()),
      hist_dim_(hist_dim),
      int8_(int8) {
  assert(actor_pn.in_dim() == weight_dim && critic_pn.in_dim() == weight_dim);
  assert(actor_trunk.in_dim() == pn_out_ + hist_dim);
  // Both heads share pn_out_ as the history-copy offset in ForwardHead, so the
  // critic's shapes must match the actor's too (not just its own concat sizing).
  assert(critic_pn.out_dim() == pn_out_);
  assert(critic_trunk.in_dim() == pn_out_ + hist_dim);
  auto build_head = [&](Head* head, const MlpT<double>& pn, const MlpT<double>& trunk) {
    head->pn.CastFrom(pn);
    head->trunk.CastFrom(trunk);
    head->concat_row.resize(pn.out_dim() + hist_dim);
    head->pn_cache_w.resize(weight_dim);
    head->l0_partial.resize(head->trunk.layer(0).out_dim());
    head->scratch0.resize(head->trunk.MaxDim());
    head->scratch1.resize(head->trunk.MaxDim());
    if (int8_) {
      // The PN feature slice becomes the quantized prefix block: SeedPrefix on
      // PN-cache refresh, suffix-only GEMV per row — the int8 mirror of the
      // float path's cached l0_partial. (FreezeFrom resets the split to 0
      // itself if the first trunk layer does not quantize.)
      head->qtrunk.FreezeFrom(head->trunk, /*split=*/pn_out_);
    }
  };
  build_head(&actor_, actor_pn, actor_trunk);
  build_head(&critic_, critic_pn, critic_trunk);
}

void PreferenceFloat32Policy::InvalidatePnCache() {
  actor_.pn_cache_valid = false;
  critic_.pn_cache_valid = false;
}

bool PreferenceFloat32Policy::PnHit(const Head& head, const float* obs) const {
  return head.pn_cache_valid &&
         std::equal(obs, obs + weight_dim_, head.pn_cache_w.begin());
}

void PreferenceFloat32Policy::RefreshPnCache(Head* head, const float* obs) {
  head->pn.ForwardRow(obs, head->concat_row.data());
  std::copy(obs, obs + weight_dim_, head->pn_cache_w.begin());
  head->pn_cache_valid = true;
  if (head == &actor_) {
    ++pn_recompute_count_;
  }
  if (int8_) {
    if (head->qtrunk.split() > 0) {
      head->qtrunk.SeedPrefix(head->concat_row.data());
    }
    return;  // the float l0_partial below belongs to the float32 trunk walk
  }
  // Re-derive the trunk layer-0 accumulators over the PN feature slice (the
  // first pn_out_ inputs): per-output fma chains from zero, no bias — exactly
  // the prefix of the full layer-0 evaluation.
  const DenseLayerT<float>& l0 = head->trunk.layer(0);
  simd::RowsMatVec(head->concat_row.data(), pn_out_, 1, l0.weights().data(),
                   /*seed=*/nullptr, /*b=*/nullptr, head->l0_partial.data(),
                   l0.out_dim(), pn_out_, l0.out_dim());
}

void PreferenceFloat32Policy::ForwardHead(Head* head, const float* obs, size_t n,
                                          float* out) {
  // Mirrors PreferenceActorCritic::ForwardHeadRow over n rows, with the
  // deployment-only cached-prefix trick: the PN features AND the trunk layer-0
  // partial sums over them depend only on the leading weight vector. The PN
  // cache rolls through the rows exactly as it would across n sequential
  // calls: a row whose leading weight vector matches the cache reuses it, a
  // mismatch recomputes and re-keys it (RefreshPnCache), so callers that sort
  // rows by weight prefix pay one PN pass per distinct prefix.
  const size_t dim = obs_dim();
  const DenseLayerT<float>& l0 = head->trunk.layer(0);
  const size_t out0 = l0.out_dim();
  const size_t trunk_out = head->trunk.out_dim();
  if (int8_ || out0 == 1) {
    // Row by row. int8: the quantized trunk has no batched kernel (the first
    // layer's input scale is per row anyway). out0 == 1: the degenerate
    // single-output first layer's contract is the 8-lane dot split, which a
    // seeded resume cannot reproduce, so it runs the classic concat + full
    // trunk forward.
    for (size_t i = 0; i < n; ++i) {
      const float* row = obs + i * dim;
      float* dst = out + i * trunk_out;
      if (!PnHit(*head, row)) {
        RefreshPnCache(head, row);
      }
      if (int8_ && head->qtrunk.split() > 0) {
        // Seeded: the PN slice is already folded into the layer-0 bias, so
        // the history slice feeds the quantized trunk straight out of `obs`.
        head->qtrunk.ForwardRowSuffix(row + weight_dim_, dst);
        continue;
      }
      std::copy(row + weight_dim_, row + dim,
                head->concat_row.begin() + static_cast<ptrdiff_t>(pn_out_));
      if (int8_) {
        head->qtrunk.ForwardRow(head->concat_row.data(), dst);
      } else {
        head->trunk.ForwardRow(head->concat_row.data(), dst);
      }
    }
    return;
  }
  const size_t layers = head->trunk.layer_count();
  const size_t width = head->trunk.MaxDim();
  if (head->scratch0.size() < n * width) {
    head->scratch0.resize(n * width);
    head->scratch1.resize(n * width);
  }
  float* cur = head->scratch0.data();
  float* nxt = head->scratch1.data();
  float* dst0 = layers == 1 ? out : cur;
  // Layer 0, one run of equal weight prefix at a time: resume the cached
  // chains over the history slice (rows pn_out_.. of W) straight out of the
  // observation rows. Bit-identical to the unsplit evaluation, because a
  // seeded resume is the same per-output fma sequence (tests/serving_test.cc
  // and tests/nn_float32_test.cc pin it).
  const float* w_hist = l0.weights().data() + pn_out_ * out0;
  for (size_t i = 0; i < n;) {
    const float* row = obs + i * dim;
    if (!PnHit(*head, row)) {
      RefreshPnCache(head, row);
    }
    size_t end = i + 1;
    while (end < n && PnHit(*head, obs + end * dim)) {
      ++end;
    }
    simd::RowsMatVec(row + weight_dim_, dim, end - i, w_hist, head->l0_partial.data(),
                     l0.bias().data(), dst0 + i * out0, out0, hist_dim_, out0);
    i = end;
  }
  ApplyActivation(l0.activation(), dst0, n * out0);
  // The wider layers over the whole batch (MatMulBiasRowsInto: the multi-row
  // kernel, the lane-split row kernel for the out == 1 head). Activations are
  // elementwise, so the flattened sweep matches per-row application.
  for (size_t li = 1; li < layers; ++li) {
    const DenseLayerT<float>& l = head->trunk.layer(li);
    float* dst = li + 1 == layers ? out : nxt;
    MatMulBiasRowsInto(cur, n, l.weights(), l.bias(), dst);
    ApplyActivation(l.activation(), dst, n * l.out_dim());
    std::swap(cur, nxt);
  }
}

void PreferenceFloat32Policy::ForwardBatchF32Actor(const float* obs, size_t n,
                                                   float* means) {
  ForwardHead(&actor_, obs, n, means);
}

void PreferenceFloat32Policy::ForwardRowF32(const float* obs, float* mean, float* value) {
  ForwardHead(&actor_, obs, 1, mean);
  ForwardHead(&critic_, obs, 1, value);
}

void PreferenceFloat32Policy::ForwardRowF32Actor(const float* obs, float* mean) {
  ForwardHead(&actor_, obs, 1, mean);
}

}  // namespace mocc
