#include "src/core/preference_model.h"

#include <algorithm>
#include <cassert>
#include <fstream>
#include <sstream>

#include "src/rl/inference_policy.h"

namespace mocc {
namespace {

constexpr char kModelMagic[] = "MOCCMODL";
constexpr uint32_t kModelVersion = 1;

}  // namespace

PreferenceActorCritic::PreferenceActorCritic(const MoccConfig& config, Rng* rng)
    : config_(config), obs_dim_(config.ObsDim()) {
  auto build_head = [&](Head* head) {
    head->preference_net = Mlp({kWeightDim, config_.pn_hidden, config_.pn_out},
                               Activation::kTanh, Activation::kTanh, rng);
    std::vector<size_t> trunk_dims;
    trunk_dims.push_back(config_.pn_out + config_.HistoryDim());
    for (size_t h : config_.trunk_hidden) {
      trunk_dims.push_back(h);
    }
    trunk_dims.push_back(1);
    head->trunk = Mlp(trunk_dims, Activation::kTanh, Activation::kIdentity, rng);
    head->concat_row.resize(config_.pn_out + config_.HistoryDim());
  };
  build_head(&actor_);
  build_head(&critic_);
  log_std_(0, 0) = -1.0;
}

void PreferenceActorCritic::ForwardHeadInto(Head* head, const Matrix& obs, Matrix* out) {
  const size_t batch = obs.rows();
  const size_t hist_dim = config_.HistoryDim();
  head->weights_in.Resize(batch, kWeightDim);
  for (size_t b = 0; b < batch; ++b) {
    const double* src = obs.RowPtr(b);
    double* dst = head->weights_in.RowPtr(b);
    for (size_t c = 0; c < kWeightDim; ++c) {
      dst[c] = src[c];
    }
  }
  head->preference_net.ForwardInto(head->weights_in, &head->pn_out);
  head->concat.Resize(batch, config_.pn_out + hist_dim);
  for (size_t b = 0; b < batch; ++b) {
    double* dst = head->concat.RowPtr(b);
    const double* pn = head->pn_out.RowPtr(b);
    const double* hist = obs.RowPtr(b) + kWeightDim;
    for (size_t c = 0; c < config_.pn_out; ++c) {
      dst[c] = pn[c];
    }
    for (size_t c = 0; c < hist_dim; ++c) {
      dst[config_.pn_out + c] = hist[c];
    }
  }
  head->trunk.ForwardInto(head->concat, out);
}

void PreferenceActorCritic::ForwardHeadRow(Head* head, const std::vector<double>& obs,
                                           double* out) {
  // concat_row is pre-sized (constructor); the PN writes its features straight
  // into the concat prefix and only the history slice is copied per call. The
  // weight vector is the contiguous obs prefix, so the PN reads obs directly —
  // and since the PN depends only on that prefix, its features are reused across
  // calls as long as w⃗ (and the parameters) are unchanged, which is the steady
  // state of per-MI deployment inference.
  double* concat = head->concat_row.data();
  const bool pn_hit =
      head->pn_cache_valid &&
      std::equal(obs.begin(), obs.begin() + kWeightDim, head->pn_cache_w);
  if (!pn_hit) {
    head->preference_net.ForwardRow(obs.data(), concat);
    std::copy(obs.begin(), obs.begin() + kWeightDim, head->pn_cache_w);
    head->pn_cache_valid = true;
  }
  std::copy(obs.begin() + kWeightDim, obs.end(),
            head->concat_row.begin() + static_cast<ptrdiff_t>(config_.pn_out));
  head->trunk.ForwardRow(concat, out);
}

void PreferenceActorCritic::BackwardHead(Head* head, const Matrix& grad_out) {
  // Only the trunk's leading preference-feature columns of dL/dX have a reader
  // (the PN); the history columns and the PN's dL/dw end at the observation.
  head->trunk.BackwardInto(grad_out, &head->dpn, config_.pn_out);
  head->preference_net.BackwardInto(head->dpn, nullptr);
}

void PreferenceActorCritic::Forward(const Matrix& obs, Matrix* mean, Matrix* value) {
  assert(obs.cols() == obs_dim_);
  ForwardHeadInto(&actor_, obs, mean);
  ForwardHeadInto(&critic_, obs, value);
}

void PreferenceActorCritic::ForwardRow(const std::vector<double>& obs, double* mean,
                                       double* value) {
  assert(obs.size() == obs_dim_);
  ForwardHeadRow(&actor_, obs, mean);
  ForwardHeadRow(&critic_, obs, value);
}

void PreferenceActorCritic::ForwardRowActor(const std::vector<double>& obs,
                                            double* mean) {
  assert(obs.size() == obs_dim_);
  ForwardHeadRow(&actor_, obs, mean);
}

void PreferenceActorCritic::Backward(const Matrix& dmean, const Matrix& dvalue) {
  BackwardHead(&actor_, dmean);
  BackwardHead(&critic_, dvalue);
}

std::vector<ParamRef> PreferenceActorCritic::Params() {
  // The returned refs are mutable handles to the parameters (optimizers, model
  // blending, tests); assume the caller will write through them.
  InvalidatePnCache();
  std::vector<ParamRef> params;
  for (Head* head : {&actor_, &critic_}) {
    for (auto& p : head->preference_net.Params()) {
      params.push_back(p);
    }
    for (auto& p : head->trunk.Params()) {
      params.push_back(p);
    }
  }
  params.push_back({&log_std_, &log_std_grad_});
  return params;
}

std::unique_ptr<InferencePolicy> PreferenceActorCritic::MakeFloat32Policy() const {
  return std::make_unique<PreferenceFloat32Policy>(
      actor_.preference_net, actor_.trunk, critic_.preference_net, critic_.trunk,
      kWeightDim, config_.HistoryDim(), log_std_(0, 0));
}

std::unique_ptr<InferencePolicy> PreferenceActorCritic::MakeInt8Policy() const {
  return std::make_unique<PreferenceFloat32Policy>(
      actor_.preference_net, actor_.trunk, critic_.preference_net, critic_.trunk,
      kWeightDim, config_.HistoryDim(), log_std_(0, 0), /*int8=*/true);
}

void PreferenceActorCritic::InvalidatePnCache() {
  actor_.pn_cache_valid = false;
  critic_.pn_cache_valid = false;
}

void PreferenceActorCritic::ZeroGrad() {
  for (Head* head : {&actor_, &critic_}) {
    head->preference_net.ZeroGrad();
    head->trunk.ZeroGrad();
  }
  log_std_grad_.Fill(0.0);
  // The training loop zeroes gradients before every optimizer step, so this is
  // the hook that keeps the PN feature cache coherent with parameter updates.
  InvalidatePnCache();
}

size_t PreferenceActorCritic::ParameterCount() const {
  return actor_.preference_net.ParameterCount() + actor_.trunk.ParameterCount() +
         critic_.preference_net.ParameterCount() + critic_.trunk.ParameterCount() + 1;
}

std::unique_ptr<ActorCritic> PreferenceActorCritic::Clone() const {
  Rng scratch(1);
  auto clone = std::make_unique<PreferenceActorCritic>(config_, &scratch);
  clone->actor_.preference_net.CopyWeightsFrom(actor_.preference_net);
  clone->actor_.trunk.CopyWeightsFrom(actor_.trunk);
  clone->critic_.preference_net.CopyWeightsFrom(critic_.preference_net);
  clone->critic_.trunk.CopyWeightsFrom(critic_.trunk);
  clone->log_std_(0, 0) = log_std_(0, 0);
  return clone;
}

void PreferenceActorCritic::Serialize(BinaryWriter* w) const {
  w->WriteU64(obs_dim_);
  w->WriteU64(config_.history_len_eta);
  w->WriteU64(config_.pn_hidden);
  w->WriteU64(config_.pn_out);
  actor_.preference_net.Serialize(w);
  actor_.trunk.Serialize(w);
  critic_.preference_net.Serialize(w);
  critic_.trunk.Serialize(w);
  w->WriteDouble(log_std_(0, 0));
}

bool PreferenceActorCritic::Deserialize(BinaryReader* r) {
  const uint64_t obs_dim = r->ReadU64();
  const uint64_t eta = r->ReadU64();
  const uint64_t pn_hidden = r->ReadU64();
  const uint64_t pn_out = r->ReadU64();
  if (!r->ok() || obs_dim != obs_dim_ || eta != config_.history_len_eta ||
      pn_hidden != config_.pn_hidden || pn_out != config_.pn_out) {
    return false;
  }
  if (!actor_.preference_net.Deserialize(r) || !actor_.trunk.Deserialize(r) ||
      !critic_.preference_net.Deserialize(r) || !critic_.trunk.Deserialize(r)) {
    return false;
  }
  log_std_(0, 0) = r->ReadDouble();
  InvalidatePnCache();
  return r->ok();
}

bool PreferenceActorCritic::SaveToFile(const std::string& path) const {
  // Serialize in memory and write atomically (temp file + rename) so a crash
  // mid-save never leaves a torn model file behind.
  std::ostringstream out(std::ios::binary);
  BinaryWriter writer(out, kModelMagic, kModelVersion);
  Serialize(&writer);
  if (!writer.ok()) {
    return false;
  }
  return AtomicWriteFile(path, out.str());
}

std::shared_ptr<PreferenceActorCritic> PreferenceActorCritic::LoadFromFile(
    const std::string& path, const MoccConfig& config) {
  auto attempt = [&path](const MoccConfig& cfg) -> std::shared_ptr<PreferenceActorCritic> {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      return nullptr;
    }
    BinaryReader reader(in, kModelMagic, kModelVersion);
    if (!reader.ok()) {
      return nullptr;
    }
    Rng scratch(1);
    auto model = std::make_shared<PreferenceActorCritic>(cfg, &scratch);
    if (!model->Deserialize(&reader)) {
      return nullptr;
    }
    return model;
  };
  if (auto model = attempt(config)) {
    return model;
  }
  // A checkpoint trained with the other ECN-observation layout has a different
  // obs_dim, which Deserialize rejects; retry with the flag toggled so the
  // deployment tools do not need to be told how a model was trained. Every
  // other architecture mismatch still fails both attempts.
  MoccConfig toggled = config;
  toggled.ecn_signal = !toggled.ecn_signal;
  return attempt(toggled);
}

}  // namespace mocc
