// The congestion-control training environment (§3, §4.1 and §5 of the paper).
//
// One episode = one randomly sampled bottleneck link (Table 3 ranges) driven at
// monitor-interval granularity by the fluid link model. The agent observes the weight
// vector w⃗ plus a length-η history of network statistics g⃗_t = <l_t, p_t, q_t>
// (sending ratio, latency ratio, latency gradient), acts through the multiplicative rate
// update of Eq. (1), and receives the dynamic reward of Eq. (2). With
// include_weight_in_obs = false and a fixed weight this is exactly the single-objective
// Aurora environment used as the paper's RL baseline.
#ifndef MOCC_SRC_ENVS_CC_ENV_H_
#define MOCC_SRC_ENVS_CC_ENV_H_

#include <functional>
#include <optional>
#include <vector>

#include "src/common/rng.h"
#include "src/core/reward.h"
#include "src/core/weight_vector.h"
#include "src/envs/env.h"
#include "src/envs/mi_history.h"
#include "src/netsim/fluid_link.h"
#include "src/netsim/link_params.h"

namespace mocc {

struct CcEnvConfig {
  LinkParamsRange link_range = TrainingRange();
  size_t history_len = 10;          // η (Table 2)
  double action_scale = 0.025;      // α (Table 2)
  double mi_rtt_multiple = 1.0;     // monitor interval = multiple * current RTT
  double mi_min_duration_s = 0.01;
  int max_steps_per_episode = 400;
  bool include_weight_in_obs = true;  // false reproduces single-objective Aurora
  // Widens each history entry with the MI's ECN-mark fraction (MiHistoryTracker).
  // The fluid link never marks, so on this env the component is always 0 — the
  // flag only keeps the observation layout consistent with an ECN-aware model.
  bool include_ecn_in_obs = false;
  // true: reward uses the simulator's ground-truth capacity/base latency (offline
  // training); false: uses OnlineLinkEstimator (the paper's online phase).
  bool ground_truth_reward = true;
  bool stochastic_loss = true;
  double min_rate_bps = 0.05e6;
  // Training-time floor on the sending rate as a fraction of the (ground-truth) link
  // bandwidth, as in Aurora's gym environment: it removes the degenerate idle attractor
  // for latency/loss-leaning objectives so the policy learns to regulate AROUND
  // capacity. Deployment (MoccApi) uses only the absolute floor.
  double min_rate_fraction_of_bw = 0.2;
  // Sending rate is clamped to this multiple of the (ground truth) link bandwidth to
  // keep the fluid model numerically sane; generous enough to let the agent overshoot.
  double max_rate_multiple = 8.0;
};

class CcEnv : public Env {
 public:
  CcEnv(const CcEnvConfig& config, uint64_t seed);

  // Sets the objective used in both the observation and the reward. May be changed
  // between episodes (offline traversal) or between steps (online adaptation).
  void SetObjective(const WeightVector& w) { weight_ = w.Sanitized(); }
  const WeightVector& objective() const { return weight_; }

  // Pins the environment to one specific link instead of sampling per episode.
  void SetFixedLink(const LinkParams& params) { fixed_link_ = params; }

  // Installs a bandwidth trace applied after each Reset (for trace-driven workloads).
  //
  // Precedence when combined with SetFixedLink (or the sampled per-episode link): the
  // trace wins for bandwidth. The LinkParams still supply the propagation delay, queue
  // capacity, random-loss rate, and the fallback bandwidth before the trace's first
  // step. Everything bandwidth-dependent — the initial rate draw, the rate clamps and
  // the reward's capacity term — follows the trace, not LinkParams::bandwidth_bps.
  void SetBandwidthTrace(BandwidthTrace trace) { trace_ = std::move(trace); }
  void ClearBandwidthTrace() { trace_ = BandwidthTrace(); }

  // Installs a per-episode trace generator, invoked at each Reset with the episode's
  // link and the environment Rng (scenario-sampled workloads, e.g. a fresh random-walk
  // trace every episode). Wins over SetBandwidthTrace; pass nullptr to remove.
  //
  // With cache_per_env, the generator runs exactly once — on the env's first Reset,
  // with that episode's link and the env Rng — and every later episode reuses the
  // constructed schedule (the link's delay/queue/loss still resample per episode;
  // bandwidth follows the cached trace either way). This is for generators whose
  // construction cost rivals an episode (e.g. the synthetic cellular schedule, which
  // expands to per-second delivery opportunities): envs differ by seed, episodes
  // within one env share the schedule.
  using TraceGenerator = std::function<BandwidthTrace(const LinkParams&, Rng*)>;
  void SetTraceGenerator(TraceGenerator generator, bool cache_per_env = false) {
    trace_generator_ = std::move(generator);
    trace_cache_per_env_ = cache_per_env;
    cached_trace_valid_ = false;
  }

  std::vector<double> Reset() override;
  StepResult Step(double action) override;
  size_t ObservationDim() const override;

  // Introspection for evaluation harnesses.
  const MonitorReport& last_report() const { return last_report_; }
  const LinkParams& current_link() const { return link_.params(); }
  // Effective bottleneck bandwidth right now — honours the installed trace, unlike
  // current_link().bandwidth_bps which is the LinkParams fallback.
  double current_bandwidth_bps() const { return link_.CurrentBandwidthBps(); }
  double current_rate_bps() const { return rate_bps_; }
  const CcEnvConfig& config() const { return config_; }

  // Applies Eq. (1): multiplicative rate update with damping factor α.
  static double ApplyRateAction(double rate_bps, double action, double alpha);

  // Persists / restores the cross-episode state (env and link Rng streams plus the
  // cached per-env trace), so a training run resumed from a checkpoint draws the
  // same episode sequence it would have drawn uninterrupted. Per-episode state is
  // excluded: rollout collection always begins with Reset.
  void SerializeState(BinaryWriter* w) const;
  bool DeserializeState(BinaryReader* r);

 private:
  std::vector<double> BuildObservation() const;
  double MiDurationS() const;

  CcEnvConfig config_;
  Rng rng_;
  FluidLink link_;
  BandwidthTrace trace_;
  TraceGenerator trace_generator_;
  bool trace_cache_per_env_ = false;
  bool cached_trace_valid_ = false;
  BandwidthTrace cached_trace_;
  std::optional<LinkParams> fixed_link_;
  WeightVector weight_;
  OnlineLinkEstimator estimator_;
  MiHistoryTracker history_;
  MonitorReport last_report_;
  double rate_bps_ = 1e6;
  double prev_avg_rtt_s_ = 0.0;
  int step_count_ = 0;
};

}  // namespace mocc

#endif  // MOCC_SRC_ENVS_CC_ENV_H_
