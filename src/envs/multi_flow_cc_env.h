// Shared-bottleneck multi-flow training environment (the paper's competing-flow
// evaluations — fairness/TCP-friendliness, Figs. 11-15 — turned into a training
// scenario). N MOCC agents, optionally mixed with handcrafted competitor flows
// (CUBIC, BBR, ...), share one droptail bottleneck simulated by the packet-level
// PacketNetwork. All agents act synchronously once per monitor interval: the
// environment advances the event-driven simulation by one fixed-duration MI,
// aggregates per-flow statistics, and hands every agent its own observation
// (weight prefix + g⃗(t,η) history, identical to the single-flow CcEnv layout)
// and its own Eq. (2) reward. Fairness is first-class: the reward's capacity
// term can use the per-flow fair share (bandwidth / active flows), and Jain's
// index over the competing flows is exposed for introspection.
#ifndef MOCC_SRC_ENVS_MULTI_FLOW_CC_ENV_H_
#define MOCC_SRC_ENVS_MULTI_FLOW_CC_ENV_H_

#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/core/weight_vector.h"
#include "src/envs/env.h"
#include "src/envs/mi_history.h"
#include "src/netsim/packet_network.h"

namespace mocc {

// A rate-based congestion controller whose pacing rate is set externally — the bridge
// between the action-driven RL environment and the event-driven PacketNetwork. The
// simulator's monitor mechanism (FlowOptions::mi_fixed_duration_s) aggregates the MI
// statistics the environment reads back after each step.
class ExternalRateCc : public CongestionControl {
 public:
  explicit ExternalRateCc(double initial_rate_bps) : rate_bps_(initial_rate_bps) {}

  CcMode Mode() const override { return CcMode::kRateBased; }
  std::string Name() const override { return "external-rate"; }
  // The externally set rate is the only transmission control; individual ACKs
  // are pure bookkeeping, so the simulator may coalesce them off its event
  // heap (see CongestionControl::NeedsPerAckEvents).
  bool NeedsPerAckEvents() const override { return false; }
  void OnMonitorInterval(const MonitorReport& report) override {
    last_report_ = report;
    has_report_ = true;
  }
  double PacingRateBps() const override { return rate_bps_; }

  void set_rate_bps(double rate_bps) { rate_bps_ = rate_bps; }
  double rate_bps() const { return rate_bps_; }
  bool has_report() const { return has_report_; }
  const MonitorReport& last_report() const { return last_report_; }

 private:
  double rate_bps_;
  MonitorReport last_report_;
  bool has_report_ = false;
};

// One scheduled mid-episode preference change (the paper's online objective
// adjustment, §4.3, as a training/evaluation event): starting with the environment
// step whose monitor interval begins at or after `time_s`, `agent` (every agent when
// agent < 0) is rewarded — and observed, through the weight prefix — under `to`.
// The action taken on the switching step still comes from the pre-switch
// observation; the policy reads the new preference from the next observation, which
// is exactly how a deployed flow experiences SetObservationPrefix.
struct PreferenceSwitch {
  double time_s = 0.0;
  int agent = -1;  // -1 = all agents
  WeightVector to;
};

// Per-agent objective assignment for heterogeneous-requirement scenarios (MOCC's
// central claim: one preference-conditioned policy serving different objectives at
// once). All weights pass through WeightVector::Sanitized, so the plan can never
// push an agent outside the trained preference region.
struct ObjectivePlan {
  // Fixed mixes, cycled over agents (agent i gets fixed[i % size]); re-applied on
  // every Reset, overriding any external SetObjective/SetAgentObjective call. Empty
  // leaves episode weights under external control.
  std::vector<WeightVector> fixed;
  // Resample every agent's weight vector per episode, uniformly over the floored
  // simplex (SampleWeightVector), from the env's own Rng — seed-reproducible and
  // independent of collection scheduling. Applied after `fixed`, so it wins.
  bool sample_per_episode = false;
  // Scheduled mid-episode switches, applied in time order within each episode.
  std::vector<PreferenceSwitch> switches;

  // True when Reset re-derives episode weights from the plan (external SetObjective
  // calls are overridden) — trainers skip their per-iteration objective assignment
  // for such environments.
  bool OverridesEpisodeWeights() const { return !fixed.empty() || sample_per_episode; }
  bool Empty() const {
    return fixed.empty() && !sample_per_episode && switches.empty();
  }

  // The single source of truth for deriving an episode's per-agent weights: starts
  // from `base` (one entry per agent), cycles the fixed mixes over it, then — when
  // `rng` is non-null — draws the per-episode samples (two draws per agent, agent
  // order). Pass rng = nullptr to apply only the deterministic part (construction
  // time, where consuming env draws would shift the episode stream). Training
  // (MultiFlowCcEnv::Reset) and evaluation (mocc_simulate) both call this, so a
  // simulation assigns weights by the same rules training does. The draws
  // themselves differ: mocc_simulate samples the link before the weights and
  // seeds its network from --seed, so it reproduces a scenario's structure, not
  // a training episode's draws.
  std::vector<WeightVector> EpisodeWeights(int num_agents,
                                           std::vector<WeightVector> base,
                                           Rng* rng) const;
};

// Everything that varies between multi-flow workloads: the flows, their link
// and topology, the link models on the bottleneck and the objective assignment.
// Scenario (the named catalog entry) and MultiFlowCcEnvConfig (the training env)
// both derive from it, and BuildEpisodeNetwork turns it into one episode's
// network for both the env and mocc_simulate.
struct EpisodeSpec {
  // 1 with no competitors and no packet-level link model = a single-flow CcEnv
  // scenario (see Scenario::IsMultiFlow).
  int num_agents = 1;
  // Link selection per episode: fixed_link if set, else link_range if set, else
  // the Table 3 training row (TrainingRange()).
  std::optional<LinkParams> fixed_link;
  std::optional<LinkParamsRange> link_range;
  // Per-episode bandwidth schedule; null = constant bandwidth. The trace wins
  // over the link's constant bandwidth.
  std::function<BandwidthTrace(const LinkParams&, Rng*)> trace_generator;
  // Run the generator once on the first Reset and reuse its schedule for every
  // later episode of the env (for generators whose construction cost rivals an
  // episode — the synthetic cellular schedule; see CcEnv::SetTraceGenerator).
  bool cache_trace_per_env = false;
  // Episode topology built from the (sampled or fixed) link: the dumbbell
  // default, a multi-hop parking lot (agents traverse every hop, competitor i
  // is cross traffic on hop i), a congested reverse path (agents' ACKs share a
  // reverse link that competitors drive in their data direction) or an N-leaf
  // dumbbell; see src/netsim/topology.h.
  TopologySpec topology;
  // Per-agent extra one-way propagation delay (cycled when shorter than
  // num_agents; empty = none) — heterogeneous-RTT contention on one bottleneck.
  std::vector<double> agent_extra_delay_s;
  // Competitor flows sharing the bottleneck, by baseline scheme name (see
  // MakeBaselineCc), with one shared arrival/departure schedule.
  std::vector<std::string> competitor_schemes;
  double competitor_start_s = 0.0;
  double competitor_stop_s = std::numeric_limits<double>::infinity();
  // Agent i arrives at i * agent_stagger_s (snapped to the step grid in the env),
  // modelling flow-arrival dynamics; 0 starts everyone together.
  double agent_stagger_s = 0.0;
  // true: the reward's capacity term is the fair share (bandwidth / active flows), so
  // each agent is rewarded for regulating around its share rather than the whole pipe;
  // false: full bandwidth, as in the single-flow CcEnv.
  bool fair_share_reward = true;
  // Heterogeneous per-agent objectives: fixed mixes, per-episode sampling, scheduled
  // mid-episode preference switches. Empty = all agents share whatever SetObjective
  // installs (the homogeneous pre-plan behaviour, bit-identical).
  ObjectivePlan objectives;
  // Injected fault schedule on the bottleneck (link 0). Empty = no faults, the
  // historical behaviour, bit-identical. With fault.randomize_phase, each episode
  // draws a fresh window phase from the episode Rng; the draw happens only when a
  // fault is configured, so fault-free specs keep their draw streams untouched.
  FaultSpec fault;
  // Active queue management on the bottleneck (link 0). Droptail = no AQM, the
  // historical behaviour, bit-identical. With aqm.ecn, the agents' flows are
  // ECN-capable (marked instead of dropped) while competitors stay non-ECT and
  // keep taking drops — the standard mixed-deployment setup.
  AqmSpec aqm;
  // Bursty wifi-style service-time variation on the bottleneck (link 0). Empty =
  // none, bit-identical. With wifi_jitter.randomize_phase, each episode draws a
  // fresh burst phase after the fault phase; as with `fault`, only when a jitter
  // model is configured.
  WifiJitterSpec wifi_jitter;

  // The episode's link: fixed_link, or a draw from the configured range.
  LinkParams SampleLink(Rng* rng) const {
    return fixed_link.has_value() ? *fixed_link
                                  : link_range.value_or(TrainingRange()).Sample(rng);
  }
};

// One episode's network, before any flow is added: what training and
// evaluation must agree on. Callers add their own controllers, start times and
// monitor-interval sizing on top of the flow options.
struct EpisodeNetwork {
  // The spec's topology over the episode link, with the bottleneck's fault,
  // wifi jitter and AQM installed.
  NetworkTopology topology;
  // Agent i's paths, extra one-way delay and ECN capability.
  std::vector<FlowOptions> agents;
  // Agent i's propagation-only RTT (path hops both ways plus twice its extra
  // delay) — the reward's latency reference, so heterogeneous-RTT and
  // multi-hop flows are scored against their own floor.
  std::vector<double> agent_base_rtt_s;
  // Competitor i's paths and the shared start/stop schedule.
  std::vector<FlowOptions> competitors;
};

// Builds one episode's network from `spec` over `link`. Draws from `rng` only
// for a randomized fault phase and then a randomized wifi-jitter phase, in that
// order. Homogeneous shapes give every agent hops x link.BaseRttS() (bit-identical
// to the pre-topology env: per-hop summation rounds differently for >=4 hops);
// heterogeneous ones (N-leaf, per-link scales) sum the agent's own path.
EpisodeNetwork BuildEpisodeNetwork(const EpisodeSpec& spec, const LinkParams& link,
                                   Rng* rng);

// The training environment's configuration: the episode spec plus the RL knobs
// (observation, action and reward shaping) inherited from the model's CcEnvConfig.
struct MultiFlowCcEnvConfig : EpisodeSpec {
  size_t history_len = 10;        // η (Table 2)
  double action_scale = 0.025;    // α (Table 2)
  // Synchronized environment step = one monitor interval for every flow:
  // max(step_min_duration_s, step_rtt_multiple * base RTT), fixed per episode.
  double step_rtt_multiple = 1.0;
  double step_min_duration_s = 0.010;
  int max_steps_per_episode = 400;
  // Widens each history entry with the MI's ECN-mark fraction (see
  // MiHistoryTracker); changes ObservationDim, so it must match the model's
  // MoccConfig::ecn_signal.
  bool include_ecn_in_obs = false;
  double min_rate_bps = 0.05e6;
  // Training floor as a fraction of the fair share (the CcEnv floor rationale, scaled
  // to contention: it removes the idle attractor without forcing overload when N is
  // large). The ceiling stays a multiple of the FULL bandwidth so fairness must be
  // learned, not enforced by the clamp.
  double min_rate_fraction_of_share = 0.2;
  double max_rate_multiple = 8.0;
  // Each agent's initial rate is fair_share * Uniform(1 - jitter, 1 + jitter), so
  // training episodes start off the symmetric fixed point (agents must cope with both
  // under- and over-shoot, as in CcEnv). Evaluation harnesses probing fairness
  // maintenance can set 0 for exact fair-share starts.
  double initial_rate_jitter = 0.6;
};

class MultiFlowCcEnv : public VectorEnv {
 public:
  MultiFlowCcEnv(const MultiFlowCcEnvConfig& config, uint64_t seed);

  // Sets every agent's objective (per-agent variants for heterogeneous-requirement
  // scenarios). May be changed between episodes. When the config carries an
  // ObjectivePlan with fixed mixes or per-episode sampling, Reset re-derives the
  // episode weights from the plan, overriding these calls (the scenario owns its
  // objective assignment); scheduled switches always overlay whatever base weights
  // the episode started with.
  void SetObjective(const WeightVector& w);
  void SetAgentObjective(int agent, const WeightVector& w);
  const WeightVector& agent_objective(int agent) const {
    return weights_[static_cast<size_t>(agent)];
  }

  std::vector<std::vector<double>> Reset() override;
  VectorStepResult Step(const std::vector<double>& actions) override;
  int NumAgents() const override { return config_.num_agents; }
  bool AgentActive(int agent) const override { return AgentStarted(agent); }
  size_t ObservationDim() const override;

  // --- Introspection for tests/benchmarks/evaluation harnesses. ---
  const MultiFlowCcEnvConfig& config() const { return config_; }
  const LinkParams& current_link() const { return link_; }
  double current_bandwidth_bps() const;
  double now_s() const { return env_time_s_; }
  double step_duration_s() const { return step_s_; }
  // Flows currently sharing the bottleneck (started agents + scheduled competitors).
  int ActiveFlowCount() const;
  bool AgentStarted(int agent) const;
  // Propagation-only RTT of agent i's path (EpisodeNetwork::agent_base_rtt_s).
  double AgentBaseRttS(int agent) const {
    return agent_base_rtt_s_[static_cast<size_t>(agent)];
  }
  double agent_rate_bps(int agent) const;
  const MonitorReport& agent_last_report(int agent) const;
  // Scheduled preference switches already applied this episode (resets to 0 on
  // Reset) — lets tests and harnesses pin the switching step exactly.
  int applied_switch_count() const { return static_cast<int>(next_switch_); }
  // Jain's fairness index over the started agents' last-MI delivered throughputs.
  double LastStepJainIndex() const;
  // Per-agent mean delivered throughput (bps) over [from_s, to_s) of the current
  // episode, from the simulator's ACK log — the steady-state fairness metric.
  std::vector<double> AgentAvgThroughputsBps(double from_s, double to_s) const;
  // Jain's index over AgentAvgThroughputsBps — the paper's Fig. 12 metric.
  double JainIndex(double from_s, double to_s) const;

  // Persists / restores the cross-episode state (env Rng plus the cached per-env
  // trace) for training checkpoints; see CcEnv::SerializeState. Per-episode state
  // (weights, the network) is rebuilt by the trainer / Reset.
  void SerializeState(BinaryWriter* w) const;
  bool DeserializeState(BinaryReader* r);

 private:
  std::vector<double> BuildObservation(int agent) const;
  // Applies the plan's fixed/sampled weights for a fresh episode and rewinds the
  // switch schedule.
  void ApplyObjectivePlanForEpisode();
  // Applies every scheduled switch due at the monitor interval starting now.
  void ApplyDuePreferenceSwitches();

  MultiFlowCcEnvConfig config_;
  Rng rng_;
  bool cached_trace_valid_ = false;
  BandwidthTrace cached_trace_;
  // Episode weights (what rewards and observations use) and the externally set base
  // they rewind to each Reset — a mid-episode switch must not leak into the next
  // episode, and plan-less envs must keep the historical "sticky SetObjective"
  // behaviour.
  std::vector<WeightVector> weights_;
  std::vector<WeightVector> base_weights_;
  std::vector<PreferenceSwitch> switches_;  // config_.objectives.switches, time-sorted
  size_t next_switch_ = 0;
  std::vector<MiHistoryTracker> histories_;
  LinkParams link_;
  std::unique_ptr<PacketNetwork> net_;
  std::vector<ExternalRateCc*> agent_ccs_;  // owned by net_
  std::vector<int> agent_flow_ids_;
  std::vector<double> agent_start_s_;
  std::vector<double> agent_base_rtt_s_;
  double step_s_ = 0.0;
  double env_time_s_ = 0.0;
  int step_count_ = 0;
};

}  // namespace mocc

#endif  // MOCC_SRC_ENVS_MULTI_FLOW_CC_ENV_H_
