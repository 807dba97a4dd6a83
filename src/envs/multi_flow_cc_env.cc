#include "src/envs/multi_flow_cc_env.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "src/common/stats.h"
#include "src/core/reward.h"
#include "src/envs/cc_env.h"
#include "src/envs/scenario.h"

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
  return 3 + (config_.include_ecn_in_obs ? 4 : 3) * config_.history_len;
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
  if (config_.competitor_start_s <= env_time_s_ + kBoundarySlopS &&
      env_time_s_ < config_.competitor_stop_s) {
    active += static_cast<int>(config_.competitor_schemes.size());
  }
  return std::max(1, active);
}

double MultiFlowCcEnv::agent_rate_bps(int agent) const {
  return agent_ccs_[static_cast<size_t>(agent)]->rate_bps();
}

const MonitorReport& MultiFlowCcEnv::agent_last_report(int agent) const {
  return agent_ccs_[static_cast<size_t>(agent)]->last_report();
}

EpisodeNetwork BuildEpisodeNetwork(const EpisodeSpec& spec, const LinkParams& link,
                                   Rng* rng) {
  EpisodeNetwork episode;
  episode.topology = BuildTopology(spec.topology, link);
  LinkSpec& bottleneck = episode.topology.links[0];
  if (!spec.fault.empty()) {
    bottleneck.fault = spec.fault;
    if (spec.fault.randomize_phase) {
      bottleneck.fault.phase_s = rng->Uniform(0.0, spec.fault.MaxPeriodS());
    }
  }
  if (!spec.wifi_jitter.empty()) {
    bottleneck.wifi_jitter = spec.wifi_jitter;
    if (spec.wifi_jitter.randomize_phase) {
      bottleneck.wifi_jitter.phase_s =
          rng->Uniform(0.0, spec.wifi_jitter.MaxPeriodS());
    }
  }
  if (!spec.aqm.empty()) {
    bottleneck.aqm = spec.aqm;
  }

  const bool heterogeneous = spec.topology.Heterogeneous();
  for (int i = 0; i < spec.num_agents; ++i) {
    FlowPathSpec paths = AgentPath(spec.topology, i);
    FlowOptions options;
    options.path = std::move(paths.path);
    options.ack_path = std::move(paths.ack_path);
    if (!spec.agent_extra_delay_s.empty()) {
      options.extra_one_way_delay_s =
          spec.agent_extra_delay_s[static_cast<size_t>(i) %
                                   spec.agent_extra_delay_s.size()];
    }
    options.ecn_capable = spec.aqm.ecn;
    const double path_rtt_s =
        heterogeneous ? PathPropRttS(episode.topology, options.path)
                      : static_cast<double>(options.path.size()) * link.BaseRttS();
    episode.agent_base_rtt_s.push_back(path_rtt_s +
                                       2.0 * options.extra_one_way_delay_s);
    episode.agents.push_back(std::move(options));
  }
  for (size_t i = 0; i < spec.competitor_schemes.size(); ++i) {
    FlowPathSpec paths = CompetitorPath(spec.topology, static_cast<int>(i));
    FlowOptions options;
    options.start_time_s = spec.competitor_start_s;
    options.stop_time_s = spec.competitor_stop_s;
    options.path = std::move(paths.path);
    options.ack_path = std::move(paths.ack_path);
    episode.competitors.push_back(std::move(options));
  }
  return episode;
}

std::vector<std::vector<double>> MultiFlowCcEnv::Reset() {
  // Episode weights first: the plan's fixed/sampled assignment (or the external
  // base) must be in place before the warm-up observations are built below. Plan
  // sampling draws from rng_ ahead of the link sample, so the weight draws are a
  // fixed-length prefix of the episode stream.
  ApplyObjectivePlanForEpisode();
  link_ = config_.SampleLink(&rng_);
  // Same trace precedence as CcEnv: generator > constant bandwidth (one shared
  // ladder — ResolveEpisodeTrace — so the two envs cannot diverge).
  BandwidthTrace trace =
      ResolveEpisodeTrace(config_.trace_generator, config_.cache_trace_per_env,
                          &cached_trace_valid_, &cached_trace_, BandwidthTrace(), link_,
                          &rng_);
  EpisodeNetwork episode = BuildEpisodeNetwork(config_, link_, &rng_);
  net_ = std::make_unique<PacketNetwork>(episode.topology, rng_.NextU64());
  if (!trace.empty()) {
    net_->SetBandwidthTrace(std::move(trace));
  }
  agent_base_rtt_s_ = std::move(episode.agent_base_rtt_s);

  // The synchronized step covers the slowest agent's propagation RTT, so every
  // flow's monitor interval spans at least one of its own round trips.
  const double max_agent_rtt_s =
      *std::max_element(agent_base_rtt_s_.begin(), agent_base_rtt_s_.end());
  step_s_ = std::max(config_.step_min_duration_s,
                     config_.step_rtt_multiple * max_agent_rtt_s);
  env_time_s_ = 0.0;
  step_count_ = 0;

  const double bw0 = net_->CurrentBandwidthBps();
  const int total_flows =
      config_.num_agents + static_cast<int>(config_.competitor_schemes.size());
  const double share0 = bw0 / static_cast<double>(std::max(1, total_flows));

  agent_ccs_.clear();
  agent_flow_ids_.clear();
  agent_start_s_.clear();
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
    FlowOptions& options = episode.agents[static_cast<size_t>(i)];
    options.start_time_s = start_s;
    options.mi_fixed_duration_s = step_s_;
    options.initial_rate_bps = initial_rate;
    agent_flow_ids_.push_back(net_->AddFlow(std::move(cc), std::move(options)));
    agent_start_s_.push_back(start_s);
  }
  for (size_t i = 0; i < episode.competitors.size(); ++i) {
    std::unique_ptr<CongestionControl> cc = MakeBaselineCc(config_.competitor_schemes[i]);
    assert(cc != nullptr && "unknown competitor scheme");
    net_->AddFlow(std::move(cc), std::move(episode.competitors[i]));
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
  const WeightVector& w = weights_[static_cast<size_t>(agent)];
  obs.push_back(w.thr);
  obs.push_back(w.lat);
  obs.push_back(w.loss);
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
