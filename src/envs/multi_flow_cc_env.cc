#include "src/envs/multi_flow_cc_env.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "src/common/stats.h"
#include "src/core/reward.h"
#include "src/envs/cc_env.h"

namespace mocc {
namespace {

// Environment step boundaries and flow monitor events land on the same time grid but
// accumulate floating-point error in different summation orders; running a hair past
// the boundary keeps every boundary-aligned event inside its intended step.
constexpr double kBoundarySlopS = 1e-9;

// An ECN mark is a congestion signal the sender was asked to react to before the
// queue overflows; folding a fraction of the mark rate into the reward's loss term
// (DCTCP-style) makes backing off on marks pay. Half-weight: a mark costs less than
// a real loss (the packet was still delivered). Mark-free reports are untouched, so
// non-ECN scenarios score bit-identically.
constexpr double kEcnMarkLossFrac = 0.5;

}  // namespace

MultiFlowCcEnv::MultiFlowCcEnv(const MultiFlowCcEnvConfig& config, uint64_t seed)
    : config_(config), rng_(seed) {
  assert(config_.num_agents >= 1);
  assert(config_.history_len > 0);
  for (int i = 0; i < config_.num_agents; ++i) {
    weights_.emplace_back();
    histories_.emplace_back(config_.history_len, config_.include_ecn_in_obs);
  }
  // Plan-fixed mixes seed the weights so the heterogeneous assignment holds even
  // before the first Reset (e.g. for agent_objective probes). No rng: sampling
  // before the first episode would shift the env's draw stream.
  weights_ = config_.objectives.EpisodeWeights(config_.num_agents,
                                               std::move(weights_), nullptr);
  base_weights_ = weights_;
  // The switch schedule is applied by scanning forward in time; episode events must
  // not depend on the order switches were listed in the config.
  switches_ = config_.objectives.switches;
  std::stable_sort(switches_.begin(), switches_.end(),
                   [](const PreferenceSwitch& a, const PreferenceSwitch& b) {
                     return a.time_s < b.time_s;
                   });
}

void MultiFlowCcEnv::SetObjective(const WeightVector& w) {
  for (int i = 0; i < config_.num_agents; ++i) {
    SetAgentObjective(i, w);
  }
}

void MultiFlowCcEnv::SetAgentObjective(int agent, const WeightVector& w) {
  weights_[static_cast<size_t>(agent)] = w.Sanitized();
  // External objective control also moves the per-episode base, so the assignment
  // survives episode boundaries (unless an objective plan overrides it at Reset).
  base_weights_[static_cast<size_t>(agent)] = weights_[static_cast<size_t>(agent)];
}

std::vector<WeightVector> ObjectivePlan::EpisodeWeights(
    int num_agents, std::vector<WeightVector> base, Rng* rng) const {
  assert(static_cast<int>(base.size()) == num_agents);
  if (!fixed.empty()) {
    for (int i = 0; i < num_agents; ++i) {
      base[static_cast<size_t>(i)] =
          fixed[static_cast<size_t>(i) % fixed.size()].Sanitized();
    }
  }
  if (sample_per_episode && rng != nullptr) {
    // Drawn in agent order: two draws per agent, every episode, so the draw
    // stream — and with it pool-vs-serial bit-identity — is independent of who
    // else is collecting.
    for (int i = 0; i < num_agents; ++i) {
      base[static_cast<size_t>(i)] = SampleWeightVector(rng);
    }
  }
  return base;
}

void MultiFlowCcEnv::ApplyObjectivePlanForEpisode() {
  weights_ =
      config_.objectives.EpisodeWeights(config_.num_agents, base_weights_, &rng_);
  next_switch_ = 0;
}

void MultiFlowCcEnv::ApplyDuePreferenceSwitches() {
  while (next_switch_ < switches_.size() &&
         switches_[next_switch_].time_s <= env_time_s_ + kBoundarySlopS) {
    const PreferenceSwitch& sw = switches_[next_switch_];
    if (sw.agent < 0) {
      for (WeightVector& weight : weights_) {
        weight = sw.to.Sanitized();
      }
    } else if (sw.agent < config_.num_agents) {
      weights_[static_cast<size_t>(sw.agent)] = sw.to.Sanitized();
    }
    ++next_switch_;
  }
}

size_t MultiFlowCcEnv::ObservationDim() const {
  return (config_.include_weight_in_obs ? 3 : 0) +
         (config_.include_ecn_in_obs ? 4 : 3) * config_.history_len;
}

double MultiFlowCcEnv::current_bandwidth_bps() const {
  return net_ != nullptr ? net_->CurrentBandwidthBps() : link_.bandwidth_bps;
}

bool MultiFlowCcEnv::AgentStarted(int agent) const {
  return agent_start_s_[static_cast<size_t>(agent)] <= env_time_s_ + kBoundarySlopS;
}

int MultiFlowCcEnv::ActiveFlowCount() const {
  int active = 0;
  for (double start : agent_start_s_) {
    if (start <= env_time_s_ + kBoundarySlopS) {
      ++active;
    }
  }
  for (const CompetitorFlow& competitor : config_.competitors) {
    if (competitor.start_time_s <= env_time_s_ + kBoundarySlopS &&
        env_time_s_ < competitor.stop_time_s) {
      ++active;
    }
  }
  return std::max(1, active);
}

double MultiFlowCcEnv::agent_rate_bps(int agent) const {
  return agent_ccs_[static_cast<size_t>(agent)]->rate_bps();
}

const MonitorReport& MultiFlowCcEnv::agent_last_report(int agent) const {
  return agent_ccs_[static_cast<size_t>(agent)]->last_report();
}

std::vector<std::vector<double>> MultiFlowCcEnv::Reset() {
  // Episode weights first: the plan's fixed/sampled assignment (or the external
  // base) must be in place before the warm-up observations are built below. Plan
  // sampling draws from rng_ ahead of the link sample, so the weight draws are a
  // fixed-length prefix of the episode stream.
  ApplyObjectivePlanForEpisode();
  link_ = config_.fixed_link.has_value() ? *config_.fixed_link
                                         : config_.link_range.Sample(&rng_);
  // Same trace precedence as CcEnv: generator > fixed trace > constant bandwidth
  // (one shared ladder — ResolveEpisodeTrace — so the two envs cannot diverge).
  BandwidthTrace trace =
      ResolveEpisodeTrace(config_.trace_generator, config_.cache_trace_per_env,
                          &cached_trace_valid_, &cached_trace_, config_.trace, link_,
                          &rng_);

  NetworkTopology topology = BuildTopology(config_.topology, link_);
  if (!config_.fault.empty()) {
    FaultSpec fault = config_.fault;
    if (fault.randomize_phase) {
      fault.phase_s = rng_.Uniform(0.0, fault.MaxPeriodS());
    }
    topology.links[0].fault = fault;
  }
  if (!config_.wifi_jitter.empty()) {
    WifiJitterSpec jitter = config_.wifi_jitter;
    if (jitter.randomize_phase) {
      jitter.phase_s = rng_.Uniform(0.0, jitter.MaxPeriodS());
    }
    topology.links[0].wifi_jitter = jitter;
  }
  if (!config_.aqm.empty()) {
    topology.links[0].aqm = config_.aqm;
  }
  net_ = std::make_unique<PacketNetwork>(topology, rng_.NextU64());
  if (!trace.empty()) {
    net_->SetBandwidthTrace(std::move(trace));
  }

  // Per-agent propagation RTT: path hops both ways plus the agent's extra
  // delay. Homogeneous topologies keep the historical hops * BaseRttS() form
  // (bit-identical to the pre-topology env — per-hop summation rounds
  // differently for >=4 hops); heterogeneous ones (N-leaf, per-link scales)
  // sum their own path's propagation delays.
  const bool heterogeneous = config_.topology.Heterogeneous();
  const FlowPathSpec shared_path = AgentPath(config_.topology, 0);
  const double shared_path_rtt_s =
      heterogeneous ? PathPropRttS(topology, shared_path.path)
                    : static_cast<double>(shared_path.path.size()) * link_.BaseRttS();
  // One cyclic expansion of the configured extra-delay ladder, reused for both
  // the reward's RTT reference and the wire's FlowOptions so they cannot
  // disagree.
  std::vector<double> agent_extras(static_cast<size_t>(config_.num_agents), 0.0);
  std::vector<FlowPathSpec> agent_paths;
  agent_paths.reserve(static_cast<size_t>(config_.num_agents));
  agent_base_rtt_s_.clear();
  double max_agent_rtt_s = 0.0;
  for (int i = 0; i < config_.num_agents; ++i) {
    agent_paths.push_back(i == 0 ? shared_path : AgentPath(config_.topology, i));
    const FlowPathSpec& paths = agent_paths.back();
    const double path_rtt_s = (heterogeneous && i != 0)
                                  ? PathPropRttS(topology, paths.path)
                                  : shared_path_rtt_s;
    if (!config_.agent_extra_delay_s.empty()) {
      agent_extras[static_cast<size_t>(i)] =
          config_.agent_extra_delay_s[static_cast<size_t>(i) %
                                      config_.agent_extra_delay_s.size()];
    }
    const double rtt = path_rtt_s + 2.0 * agent_extras[static_cast<size_t>(i)];
    agent_base_rtt_s_.push_back(rtt);
    max_agent_rtt_s = std::max(max_agent_rtt_s, rtt);
  }

  // The synchronized step covers the slowest agent's propagation RTT, so every
  // flow's monitor interval spans at least one of its own round trips.
  step_s_ = std::max(config_.step_min_duration_s,
                     config_.step_rtt_multiple * max_agent_rtt_s);
  env_time_s_ = 0.0;
  step_count_ = 0;

  const double bw0 = net_->CurrentBandwidthBps();
  const int total_flows =
      config_.num_agents + static_cast<int>(config_.competitors.size());
  const double share0 = bw0 / static_cast<double>(std::max(1, total_flows));

  agent_ccs_.clear();
  agent_flow_ids_.clear();
  agent_start_s_.clear();
  competitor_flow_ids_.clear();
  for (int i = 0; i < config_.num_agents; ++i) {
    histories_[static_cast<size_t>(i)].Reset();
    // Flow arrivals snap to the step grid so every flow's monitor intervals stay
    // aligned with the synchronized environment step.
    const double start_s =
        std::round(static_cast<double>(i) * config_.agent_stagger_s / step_s_) * step_s_;
    // Start near a random fraction of the fair share so agents see both under- and
    // over-shoot regimes from the first step (the CcEnv initialisation, per flow).
    const double jitter = std::clamp(config_.initial_rate_jitter, 0.0, 1.0);
    const double initial_rate = std::max(
        config_.min_rate_bps, share0 * rng_.Uniform(1.0 - jitter, 1.0 + jitter));
    auto cc = std::make_unique<ExternalRateCc>(initial_rate);
    agent_ccs_.push_back(cc.get());
    FlowOptions options;
    options.start_time_s = start_s;
    options.mi_fixed_duration_s = step_s_;
    options.initial_rate_bps = initial_rate;
    options.path = agent_paths[static_cast<size_t>(i)].path;
    options.ack_path = agent_paths[static_cast<size_t>(i)].ack_path;
    options.extra_one_way_delay_s = agent_extras[static_cast<size_t>(i)];
    options.ecn_capable = config_.aqm.ecn;
    agent_flow_ids_.push_back(net_->AddFlow(std::move(cc), options));
    agent_start_s_.push_back(start_s);
  }
  int competitor_index = 0;
  for (const CompetitorFlow& competitor : config_.competitors) {
    assert(competitor.make != nullptr);
    const FlowPathSpec paths = CompetitorPath(config_.topology, competitor_index++);
    FlowOptions options;
    options.start_time_s = competitor.start_time_s;
    options.stop_time_s = competitor.stop_time_s;
    options.path = paths.path;
    options.ack_path = paths.ack_path;
    competitor_flow_ids_.push_back(net_->AddFlow(competitor.make(), options));
  }

  // Warm the histories with one neutral interval, as in CcEnv::Reset.
  env_time_s_ = step_s_;
  net_->Run(env_time_s_ + kBoundarySlopS);
  std::vector<std::vector<double>> observations;
  observations.reserve(static_cast<size_t>(config_.num_agents));
  for (int i = 0; i < config_.num_agents; ++i) {
    ExternalRateCc* cc = agent_ccs_[static_cast<size_t>(i)];
    if (cc->has_report()) {
      histories_[static_cast<size_t>(i)].Push(cc->last_report());
    }
    observations.push_back(BuildObservation(i));
  }
  return observations;
}

VectorStepResult MultiFlowCcEnv::Step(const std::vector<double>& actions) {
  assert(net_ != nullptr && "Step before Reset");
  assert(static_cast<int>(actions.size()) == config_.num_agents);
  // A switch scheduled at t takes effect for the monitor interval starting now
  // (env_time_s_): this step's reward and the observation returned from it both see
  // the new preference, while the action being applied was still chosen under the
  // old one — the deployed SetObservationPrefix semantics.
  ApplyDuePreferenceSwitches();
  const double bw_before = current_bandwidth_bps();
  const double share = bw_before / static_cast<double>(ActiveFlowCount());
  const double min_rate =
      std::max(config_.min_rate_bps, config_.min_rate_fraction_of_share * share);
  const double max_rate = std::max(min_rate, bw_before * config_.max_rate_multiple);
  for (int i = 0; i < config_.num_agents; ++i) {
    if (!AgentStarted(i)) {
      continue;  // the action of a not-yet-arrived flow is ignored
    }
    ExternalRateCc* cc = agent_ccs_[static_cast<size_t>(i)];
    const double action = std::clamp(actions[static_cast<size_t>(i)], -1e3, 1e3);
    double rate = CcEnv::ApplyRateAction(cc->rate_bps(), action, config_.action_scale);
    cc->set_rate_bps(std::clamp(rate, min_rate, max_rate));
  }

  env_time_s_ += step_s_;
  net_->Run(env_time_s_ + kBoundarySlopS);

  const double bw = current_bandwidth_bps();
  // Fair-share capacity approximates each flow's entitlement as bottleneck
  // bandwidth over active flows; on the parking lot (where cross traffic loads
  // individual hops) it is the hop-capacity split, a deliberate simplification.
  const double capacity =
      config_.fair_share_reward ? bw / static_cast<double>(ActiveFlowCount()) : bw;

  VectorStepResult result;
  result.observations.reserve(static_cast<size_t>(config_.num_agents));
  result.rewards.resize(static_cast<size_t>(config_.num_agents), 0.0);
  for (int i = 0; i < config_.num_agents; ++i) {
    ExternalRateCc* cc = agent_ccs_[static_cast<size_t>(i)];
    if (AgentStarted(i) && cc->has_report()) {
      histories_[static_cast<size_t>(i)].Push(cc->last_report());
      MonitorReport scored = cc->last_report();
      if (scored.ecn_rate > 0.0) {
        scored.loss_rate =
            std::min(1.0, scored.loss_rate + kEcnMarkLossFrac * scored.ecn_rate);
      }
      result.rewards[static_cast<size_t>(i)] =
          DynamicReward(weights_[static_cast<size_t>(i)], scored, capacity,
                        AgentBaseRttS(i));
    }
    result.observations.push_back(BuildObservation(i));
  }
  ++step_count_;
  result.done = step_count_ >= config_.max_steps_per_episode;
  return result;
}

std::vector<double> MultiFlowCcEnv::BuildObservation(int agent) const {
  std::vector<double> obs;
  obs.reserve(ObservationDim());
  if (config_.include_weight_in_obs) {
    const WeightVector& w = weights_[static_cast<size_t>(agent)];
    obs.push_back(w.thr);
    obs.push_back(w.lat);
    obs.push_back(w.loss);
  }
  histories_[static_cast<size_t>(agent)].AppendObservation(&obs);
  return obs;
}

double MultiFlowCcEnv::LastStepJainIndex() const {
  std::vector<double> throughputs;
  for (int i = 0; i < config_.num_agents; ++i) {
    const ExternalRateCc* cc = agent_ccs_[static_cast<size_t>(i)];
    if (AgentStarted(i) && cc->has_report()) {
      throughputs.push_back(cc->last_report().throughput_bps);
    }
  }
  return JainFairnessIndex(throughputs);
}

std::vector<double> MultiFlowCcEnv::AgentAvgThroughputsBps(double from_s,
                                                           double to_s) const {
  std::vector<double> throughputs;
  if (net_ == nullptr) {
    return throughputs;
  }
  throughputs.reserve(agent_flow_ids_.size());
  for (int flow_id : agent_flow_ids_) {
    throughputs.push_back(net_->record(flow_id).AvgThroughputBps(from_s, to_s));
  }
  return throughputs;
}

double MultiFlowCcEnv::JainIndex(double from_s, double to_s) const {
  return JainFairnessIndex(AgentAvgThroughputsBps(from_s, to_s));
}

void MultiFlowCcEnv::SerializeState(BinaryWriter* w) const {
  rng_.Serialize(w);
  w->WriteU32(cached_trace_valid_ ? 1 : 0);
  cached_trace_.Serialize(w);
}

bool MultiFlowCcEnv::DeserializeState(BinaryReader* r) {
  if (!rng_.Deserialize(r)) {
    return false;
  }
  cached_trace_valid_ = r->ReadU32() != 0;
  return cached_trace_.Deserialize(r) && r->ok();
}

}  // namespace mocc
