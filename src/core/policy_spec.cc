#include "src/core/policy_spec.h"

#include <cstdio>
#include <utility>

namespace mocc {

bool ParsePrecision(const std::string& text, Precision* out) {
  if (text == "double") {
    *out = Precision::kDouble;
    return true;
  }
  if (text == "float32") {
    *out = Precision::kFloat32;
    return true;
  }
  if (text == "int8") {
    *out = Precision::kInt8;
    return true;
  }
  return false;
}

const char* PrecisionName(Precision p) {
  switch (p) {
    case Precision::kDouble:
      return "double";
    case Precision::kFloat32:
      return "float32";
    case Precision::kInt8:
      return "int8";
  }
  return "double";
}

PolicySpec& PolicySpec::WithModel(std::shared_ptr<PreferenceActorCritic> model) {
  model_ = std::move(model);
  loaded_.reset();
  return *this;
}

PolicySpec& PolicySpec::WithCheckpoint(std::string path) {
  checkpoint_ = std::move(path);
  loaded_.reset();
  return *this;
}

PolicySpec& PolicySpec::WithConfig(const MoccConfig& config) {
  config_ = config;
  loaded_.reset();
  return *this;
}

PolicySpec& PolicySpec::WithPrecision(Precision precision) {
  precision_ = precision;
  return *this;
}

PolicySpec& PolicySpec::WithGuard(bool guard) {
  guard_ = guard;
  return *this;
}

PolicySpec& PolicySpec::WithGuardOptions(const GuardedPolicy::Options& options) {
  guard_options_ = options;
  return *this;
}

PolicySpec& PolicySpec::WithWeights(const WeightVector& w) {
  weights_ = w;
  return *this;
}

PolicySpec& PolicySpec::WithInitialRate(double initial_rate_bps) {
  initial_rate_bps_ = initial_rate_bps;
  return *this;
}

PolicySpec& PolicySpec::WithRateBounds(double min_rate_bps, double max_rate_bps) {
  min_rate_bps_ = min_rate_bps;
  max_rate_bps_ = max_rate_bps;
  return *this;
}

PolicySpec& PolicySpec::WithName(std::string name) {
  name_ = std::move(name);
  return *this;
}

std::shared_ptr<PreferenceActorCritic> PolicySpec::ResolveModel() const {
  if (model_ != nullptr) {
    return model_;
  }
  if (loaded_ != nullptr) {
    return loaded_;
  }
  if (checkpoint_.empty()) {
    std::fprintf(stderr,
                 "PolicySpec: no model — set WithModel() or WithCheckpoint()\n");
    return nullptr;
  }
  loaded_ = PreferenceActorCritic::LoadFromFile(checkpoint_, config_);
  if (loaded_ == nullptr) {
    std::fprintf(stderr, "PolicySpec: failed to load model from %s\n",
                 checkpoint_.c_str());
  }
  return loaded_;
}

std::unique_ptr<RlRateController> PolicySpec::MakeController(
    const WeightVector& w) const {
  return MakeController(w, initial_rate_bps_);
}

std::unique_ptr<RlRateController> PolicySpec::MakeController() const {
  return MakeController(weights_, initial_rate_bps_);
}

RlRateController::Options PolicySpec::ControllerOptions(const MoccConfig& config,
                                                        const WeightVector& w,
                                                        double initial_rate_bps) const {
  const WeightVector sanitized = w.Sanitized();
  RlRateController::Options options;
  options.history_len = config.history_len_eta;
  options.action_scale = config.action_scale_alpha;
  // The history width follows the model, not the caller: LoadFromFile detects
  // the checkpoint's ECN-observation layout, so a deployed ECN-aware model
  // automatically gets the 4-wide entries it was trained on.
  options.include_ecn = config.ecn_signal;
  options.initial_rate_bps = initial_rate_bps;
  options.min_rate_bps = min_rate_bps_;
  options.max_rate_bps = max_rate_bps_;
  options.observation_prefix = {sanitized.thr, sanitized.lat, sanitized.loss};
  options.name = name_;
  options.precision = precision_;
  options.guard = guard_;
  options.guard_options = guard_options_;
  return options;
}

std::unique_ptr<RlRateController> PolicySpec::MakeController(
    const WeightVector& w, double initial_rate_bps) const {
  std::shared_ptr<PreferenceActorCritic> model = ResolveModel();
  if (model == nullptr) {
    return nullptr;
  }
  RlRateController::Options options =
      ControllerOptions(model->config(), w, initial_rate_bps);
  return std::make_unique<RlRateController>(std::move(model), std::move(options));
}

}  // namespace mocc
