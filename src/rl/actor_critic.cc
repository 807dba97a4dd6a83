#include "src/rl/actor_critic.h"

#include <cassert>

#include "src/rl/inference_policy.h"

namespace mocc {

void ActorCritic::ForwardRow(const std::vector<double>& obs, double* mean, double* value) {
  Matrix x(1, obs.size());
  x.SetRow(0, obs);
  Matrix m;
  Matrix v;
  Forward(x, &m, &v);
  *mean = m(0, 0);
  *value = v(0, 0);
}

void ActorCritic::ForwardRowActor(const std::vector<double>& obs, double* mean) {
  double value = 0.0;
  ForwardRow(obs, mean, &value);
}

double ActorCritic::ActionMean(const std::vector<double>& obs) {
  double mean = 0.0;
  ForwardRowActor(obs, &mean);
  return mean;
}

double ActorCritic::Value(const std::vector<double>& obs) {
  double mean = 0.0;
  double value = 0.0;
  ForwardRow(obs, &mean, &value);
  return value;
}

std::unique_ptr<InferencePolicy> ActorCritic::MakeFloat32Policy() const { return nullptr; }

std::unique_ptr<InferencePolicy> ActorCritic::MakeInt8Policy() const { return nullptr; }

MlpActorCritic::MlpActorCritic(size_t obs_dim, Rng* rng, std::vector<size_t> hidden,
                               double init_log_std)
    : obs_dim_(obs_dim), hidden_(std::move(hidden)) {
  std::vector<size_t> dims;
  dims.push_back(obs_dim_);
  for (size_t h : hidden_) {
    dims.push_back(h);
  }
  dims.push_back(1);
  actor_ = Mlp(dims, Activation::kTanh, Activation::kIdentity, rng);
  critic_ = Mlp(dims, Activation::kTanh, Activation::kIdentity, rng);
  log_std_(0, 0) = init_log_std;
}

void MlpActorCritic::Forward(const Matrix& obs, Matrix* mean, Matrix* value) {
  assert(obs.cols() == obs_dim_);
  actor_.ForwardInto(obs, mean);
  critic_.ForwardInto(obs, value);
}

void MlpActorCritic::Backward(const Matrix& dmean, const Matrix& dvalue) {
  actor_.BackwardInto(dmean, nullptr);
  critic_.BackwardInto(dvalue, nullptr);
}

void MlpActorCritic::ForwardRow(const std::vector<double>& obs, double* mean, double* value) {
  assert(obs.size() == obs_dim_);
  actor_.ForwardRow(obs.data(), mean);
  critic_.ForwardRow(obs.data(), value);
}

void MlpActorCritic::ForwardRowActor(const std::vector<double>& obs, double* mean) {
  assert(obs.size() == obs_dim_);
  actor_.ForwardRow(obs.data(), mean);
}

std::vector<ParamRef> MlpActorCritic::Params() {
  std::vector<ParamRef> params = actor_.Params();
  for (auto& p : critic_.Params()) {
    params.push_back(p);
  }
  params.push_back({&log_std_, &log_std_grad_});
  return params;
}

void MlpActorCritic::ZeroGrad() {
  actor_.ZeroGrad();
  critic_.ZeroGrad();
  log_std_grad_.Fill(0.0);
}

std::unique_ptr<InferencePolicy> MlpActorCritic::MakeFloat32Policy() const {
  return std::make_unique<MlpFloat32Policy>(actor_, critic_, log_std_(0, 0));
}

std::unique_ptr<InferencePolicy> MlpActorCritic::MakeInt8Policy() const {
  return std::make_unique<MlpFloat32Policy>(actor_, critic_, log_std_(0, 0),
                                            /*int8=*/true);
}

std::unique_ptr<ActorCritic> MlpActorCritic::Clone() const {
  Rng scratch(1);
  auto clone = std::make_unique<MlpActorCritic>(obs_dim_, &scratch, hidden_, log_std_(0, 0));
  clone->actor_.CopyWeightsFrom(actor_);
  clone->critic_.CopyWeightsFrom(critic_);
  clone->log_std_(0, 0) = log_std_(0, 0);
  return clone;
}

void MlpActorCritic::Serialize(BinaryWriter* w) const {
  w->WriteU64(obs_dim_);
  actor_.Serialize(w);
  critic_.Serialize(w);
  w->WriteDouble(log_std_(0, 0));
}

bool MlpActorCritic::Deserialize(BinaryReader* r) {
  const uint64_t dim = r->ReadU64();
  if (!r->ok() || dim != obs_dim_) {
    return false;
  }
  if (!actor_.Deserialize(r) || !critic_.Deserialize(r)) {
    return false;
  }
  log_std_(0, 0) = r->ReadDouble();
  return r->ok();
}

}  // namespace mocc
