// Deploys a trained Gaussian-policy ActorCritic as a rate-based congestion controller:
// each monitor interval it pushes the report into the observation (optional preference
// prefix + the g⃗(t,η) history, identical to training) and applies the Eq. (1)
// multiplicative rate update with the policy's mean action. Used for Aurora (no prefix)
// and, through PolicySpec, for MOCC (weight-vector prefix).
//
// The controller is a CongestionControl adapter over a private one-connection
// ServingEngine (src/serving/serving_engine.h): history push, inference, guard, Eq. (1)
// and clamp are the serving layer's, so a flow decides exactly as it would as one
// connection of a MoccServing.
#ifndef MOCC_SRC_BASELINES_RL_CC_H_
#define MOCC_SRC_BASELINES_RL_CC_H_

#include <memory>
#include <string>
#include <vector>

#include "src/netsim/cc_interface.h"
#include "src/rl/actor_critic.h"
#include "src/rl/guarded_policy.h"
#include "src/rl/inference_policy.h"

namespace mocc {

class RlRateController : public CongestionControl {
 public:
  struct Options {
    size_t history_len = 10;       // η (Table 2)
    double action_scale = 0.025;   // α (Table 2)
    // 4-wide history entries carrying the ECN-mark fraction; must match the
    // model's MoccConfig::ecn_signal (the obs_dim assert enforces it).
    bool include_ecn = false;
    double initial_rate_bps = 2e6;
    double min_rate_bps = 0.1e6;
    double max_rate_bps = 400e6;
    std::vector<double> observation_prefix;  // MOCC's weight vector; empty for Aurora
    std::string name = "RL";
    // Per-MI inference precision: kFloat32 runs the model's frozen float32
    // replica (ActorCritic::MakeFloat32Policy), kInt8 the quantized replica
    // (MakeInt8Policy) — the deployment fast paths. Ignored (double path kept)
    // when the model does not provide the requested replica. The replica is
    // per-controller, so flows sharing one model do not share inference
    // scratch state.
    Precision precision = Precision::kDouble;
    // Deployment guardrails: validate every per-MI decision through a GuardedPolicy
    // circuit breaker and degrade to a warm-standby CUBIC fallback on violation
    // (half-open probes restore the policy once its outputs are sane again). Off by
    // default.
    bool guard = false;
    // Breaker tuning; min/max_rate_bps inside are overwritten from the options
    // above at construction so the two can never disagree.
    GuardedPolicy::Options guard_options;
  };

  // `model` is shared so many flows (and the owning application) can reuse one policy;
  // the simulator drives flows sequentially so no locking is needed.
  RlRateController(std::shared_ptr<ActorCritic> model, Options options);
  ~RlRateController() override;

  CcMode Mode() const override { return CcMode::kRateBased; }
  std::string Name() const override { return name_; }

  // The per-packet hooks keep the guard's warm-standby fallback scheme fed, so a
  // breaker trip hands the flow to a CUBIC whose window reflects the live path.
  void OnFlowStart(double now_s) override;
  void OnAck(const AckInfo& ack) override;
  void OnPacketLost(const LossInfo& loss) override;
  void OnTimeout(double now_s) override;
  // A malformed report (non-finite or negative fields, see ValidMonitorReport in
  // src/core/mocc_api.h) is dropped: no history push, no decision.
  void OnMonitorInterval(const MonitorReport& report) override;
  double PacingRateBps() const override { return rate_bps_; }
  // A pure monitor-interval rater with no binding window: the rate changes
  // only in OnMonitorInterval, and OnAck only feeds slab counters and the
  // guard's CUBIC, which are read at the flow's own next event. So the
  // simulator may apply its ACKs lazily (cc_interface.h).
  bool NeedsPerAckEvents() const override { return false; }

  // Replaces the observation prefix (e.g. when the registered application changes its
  // requirement at runtime). Same length as Options::observation_prefix.
  void SetObservationPrefix(std::vector<double> prefix);

  // Number of policy inferences performed so far (one per monitor interval) — the
  // quantity behind the user-space CPU overhead measurements (Figure 17).
  int64_t inference_count() const;

  // The circuit breaker (null when the guard is disabled) — trip counts and state
  // for simulate/eval reports and tests.
  const GuardedPolicy* guard() const;

 private:
  struct Connection;  // the one-connection engine and the connection's handle

  std::unique_ptr<Connection> conn_;
  std::string name_;
  double rate_bps_;  // the engine's rate after the last decision
};

}  // namespace mocc

#endif  // MOCC_SRC_BASELINES_RL_CC_H_
