// PolicySpec: the one way to describe a deployable MOCC policy.
//
// Model (or checkpoint path), precision, guard, weights and rate bounds in a single
// builder that all consumers share: the CLI tools (`mocc_simulate`, `mocc_eval`,
// `bench_report`), the benches, examples and tests, and the serving layer
// (`CreateService`, src/core/mocc_api.h). One spec→parameters mapping
// (ControllerOptions) feeds both a single flow's controller and a service, and both
// decide on the same serving engine.
//
//   PolicySpec spec;
//   spec.WithCheckpoint("model.bin").WithPrecision(Precision::kFloat32).WithGuard(true);
//   auto cc = spec.MakeController(WeightVector{0.6, 0.3, 0.1});   // one flow
//   auto service = CreateService(spec);                            // many flows
//
// A spec is a value: copy it, tweak a field, build again. The model is resolved
// once (explicit WithModel pointer, or a lazy LoadFromFile of the checkpoint on
// first use) and shared across everything built from the spec.
#ifndef MOCC_SRC_CORE_POLICY_SPEC_H_
#define MOCC_SRC_CORE_POLICY_SPEC_H_

#include <memory>
#include <string>

#include "src/baselines/rl_cc.h"
#include "src/core/mocc_config.h"
#include "src/core/preference_model.h"
#include "src/core/weight_vector.h"
#include "src/rl/guarded_policy.h"

namespace mocc {

// Precision itself (kDouble / kFloat32 / kInt8) lives in
// src/rl/inference_policy.h (re-exported here through the rl_cc.h include
// chain) so the controller layer can carry it without an include cycle.

// Parses "double" / "float32" / "int8" (the CLI --precision vocabulary).
// Returns false on anything else, leaving *out untouched.
bool ParsePrecision(const std::string& text, Precision* out);

// The CLI name of a precision ("double" / "float32" / "int8").
const char* PrecisionName(Precision p);

class PolicySpec {
 public:
  PolicySpec() = default;

  // Model source: an already-loaded model, or a checkpoint path loaded lazily on
  // first ResolveModel() with the config from WithConfig (default MoccConfig).
  // Setting one clears any previously resolved other.
  PolicySpec& WithModel(std::shared_ptr<PreferenceActorCritic> model);
  PolicySpec& WithCheckpoint(std::string path);
  PolicySpec& WithConfig(const MoccConfig& config);

  PolicySpec& WithPrecision(Precision precision);
  PolicySpec& WithGuard(bool guard);
  PolicySpec& WithGuardOptions(const GuardedPolicy::Options& options);

  // Default objective for MakeController() without an explicit weight vector
  // (sanitized at build time, like every other weight entry point).
  PolicySpec& WithWeights(const WeightVector& w);

  PolicySpec& WithInitialRate(double initial_rate_bps);
  PolicySpec& WithRateBounds(double min_rate_bps, double max_rate_bps);
  PolicySpec& WithName(std::string name);

  // The shared model behind this spec: the explicit model if set, otherwise the
  // checkpoint loaded (once; cached) with the spec's config. Returns nullptr —
  // after an stderr diagnostic — when neither is available or the load fails.
  std::shared_ptr<PreferenceActorCritic> ResolveModel() const;

  // The decision parameters for `model`'s config: history length, action scale and
  // ECN width from the config, weight prefix from `w` (sanitized), initial rate,
  // rate bounds, precision, guard and name from the spec.
  RlRateController::Options ControllerOptions(const MoccConfig& config,
                                              const WeightVector& w,
                                              double initial_rate_bps) const;

  // Builds a single-flow controller over ControllerOptions. Returns nullptr when
  // the model cannot be resolved.
  std::unique_ptr<RlRateController> MakeController(const WeightVector& w) const;
  std::unique_ptr<RlRateController> MakeController(const WeightVector& w,
                                                   double initial_rate_bps) const;
  std::unique_ptr<RlRateController> MakeController() const;  // uses WithWeights

  Precision precision() const { return precision_; }
  bool guard() const { return guard_; }
  const GuardedPolicy::Options& guard_options() const { return guard_options_; }
  const WeightVector& weights() const { return weights_; }
  double initial_rate_bps() const { return initial_rate_bps_; }
  double min_rate_bps() const { return min_rate_bps_; }
  double max_rate_bps() const { return max_rate_bps_; }
  const std::string& name() const { return name_; }
  const std::string& checkpoint() const { return checkpoint_; }

 private:
  std::shared_ptr<PreferenceActorCritic> model_;
  std::string checkpoint_;
  MoccConfig config_;
  Precision precision_ = Precision::kDouble;
  bool guard_ = false;
  GuardedPolicy::Options guard_options_;
  WeightVector weights_{1.0 / 3, 1.0 / 3, 1.0 / 3};
  double initial_rate_bps_ = 2e6;
  double min_rate_bps_ = 0.1e6;
  double max_rate_bps_ = 400e6;
  std::string name_ = "MOCC";
  // Lazy checkpoint load cache (a spec is logically const while building things).
  mutable std::shared_ptr<PreferenceActorCritic> loaded_;
};

}  // namespace mocc

#endif  // MOCC_SRC_CORE_POLICY_SPEC_H_
