// Workload `evaluate`: one committed trained checkpoint at float32, used two
// ways by the simulator.
//
//   fleet  serial RunFleet (one shard per call) over two scenarios: the 3-hop
//          mixed-objective parking lot (CUBIC cross traffic with per-ACK
//          events; three objectives defeat the replica's PN cache) and the
//          10-agent N-leaf dumbbell (coalesced ACKs; inference is a visible
//          share of a step). Synchronized env steps.
//   sim    one PacketNetwork per link from the paper's Table-3 testing row:
//          four MOCC flows of four objectives through per-flow
//          PolicySpec::MakeController next to CUBIC (the friendliness setting)
//          — per-ACK events for every flow, RTT-clocked MIs, private replicas.
//          Asynchronous per-flow controllers.
//
// A pass is one fleet round (one episode of each scenario) plus one sim link;
// passes repeat until the time is up, each with fresh inputs derived from the
// seed. Links follow a low-discrepancy sequence over the testing row's
// bandwidth range, so every prefix of passes covers it evenly.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common.h"
#include "src/core/policy_spec.h"
#include "src/core/reward.h"
#include "src/core/weight_vector.h"
#include "src/envs/scenario.h"
#include "src/fleet/fleet.h"
#include "src/netsim/link_params.h"
#include "src/netsim/packet_network.h"
#include "src/rl/inference_policy.h"

namespace perfbench {
namespace {

using namespace mocc;

const char* const kFleetScenarios[] = {"mixed-objective-parking-lot", "n-leaf-dumbbell"};
constexpr int kFleetScenarioCount = 2;
constexpr double kSimSecondsPerLink = 20.0;
constexpr double kSliceS = 0.25;  // simulated seconds per timed sim step
const WeightVector kSimObjectives[] = {ThroughputObjective(), LatencyObjective(),
                                       BalancedObjective(), {0.1, 0.1, 0.8}};

PolicySpec LoadSpec(const std::string& path) {
  PolicySpec spec;
  spec.WithCheckpoint(path).WithPrecision(Precision::kFloat32);
  spec.ResolveModel();
  return spec;
}

FleetSpec MakeFleetSpec(const PolicySpec& policy, int scenario, uint64_t seed, int pass) {
  FleetSpec spec;
  spec.scenario = kFleetScenarios[scenario];
  spec.num_shards = 1;
  spec.episodes_per_shard = 1;
  spec.seed = SplitMix(seed * 1000003ULL + static_cast<uint64_t>(pass) * 2 +
                       static_cast<uint64_t>(scenario));
  spec.policy = policy;
  spec.threads = 1;
  return spec;
}

// --- Fleet shard twin ----------------------------------------------------------

struct FleetTwinStats {
  double shard_ns = 0.0, call_ns = 0.0;
  double step_ns = 0.0, reset_ns = 0.0, infer_ns = 0.0;
  int64_t calls = 0, steps = 0, resets = 0, infers = 0, pn_recomputes = 0;
  double agent_pkts = 0.0;     // packets sent by started agents, all steps
  double rtt_ratio_sum = 0.0;  // per started-agent MI: avg RTT / base RTT
  int64_t rtt_samples = 0;
};

// Adds [start, now) to *sum and, when tracing, closes the span `id`.
void Lap(int64_t start, double* sum, Tracer* tracer, int32_t id) {
  const int64_t end = NowNs();
  if (tracer != nullptr) tracer->End(id);
  *sum += static_cast<double>(end - start);
}

int32_t Open(Tracer* tracer, const char* name) {
  return tracer != nullptr ? tracer->Begin(name) : -1;
}

// Replays RunFleet's public calls serially — scenario resolve, per-shard seed
// and float32 replica derivation (the benchmark's precision), env Reset/Step
// with per-agent ActionMean, the reward-component rollup and the shard-order
// fold — with spans around each layer. Must reproduce RunFleet's aggregates
// bit for bit.
FleetResult FleetTwin(const FleetSpec& spec, Tracer* tracer, FleetTwinStats* stats) {
  FleetResult fleet;
  const int64_t call_start = NowNs();
  const int32_t call_span = Open(tracer, "fleet.call");
  int32_t span = Open(tracer, "fleet.setup");
  std::string error;
  std::optional<Scenario> scenario = ScenarioRegistry::Global().Resolve(spec.scenario, &error);
  std::shared_ptr<PreferenceActorCritic> model = spec.policy.ResolveModel();
  if (!scenario.has_value() || model == nullptr) {
    fleet.error = "twin: cannot resolve scenario or model";
    if (tracer != nullptr) {
      tracer->End(span);
      tracer->End(call_span);
    }
    return fleet;
  }
  const int num_shards = std::max(1, spec.num_shards);
  const CcEnvConfig env_config = model->config().MakeEnvConfig();
  Rng root(spec.seed);
  std::vector<uint64_t> seeds;
  std::vector<std::unique_ptr<InferencePolicy>> replicas;
  for (int i = 0; i < num_shards; ++i) {
    seeds.push_back(root.NextU64());
    replicas.push_back(model->MakeFloat32Policy());
  }
  if (tracer != nullptr) tracer->End(span);

  fleet.shards.resize(static_cast<size_t>(num_shards));
  for (int s = 0; s < num_shards; ++s) {
    const int64_t shard_start = NowNs();
    const int32_t shard_span = Open(tracer, "fleet.shard");
    ShardResult* result = &fleet.shards[static_cast<size_t>(s)];
    result->shard = s;
    result->seed = seeds[static_cast<size_t>(s)];
    InferencePolicy* policy = replicas[static_cast<size_t>(s)].get();
    std::unique_ptr<MultiFlowCcEnv> env = scenario->MakeMultiFlowEnv(env_config, result->seed);
    env->SetObjective(BalancedObjective());
    const int num_agents = env->NumAgents();
    std::vector<double> actions(static_cast<size_t>(num_agents), 0.0);
    uint64_t checksum = 0;
    for (int episode = 0; episode < spec.episodes_per_shard; ++episode) {
      int64_t t = NowNs();
      span = Open(tracer, "envs.reset");
      std::vector<std::vector<double>> obs = env->Reset();
      Lap(t, &stats->reset_ns, tracer, span);
      ++stats->resets;
      for (int step = 0;; ++step) {
        if (tracer != nullptr) tracer->SetGroup(stats->steps);
        t = NowNs();
        span = Open(tracer, "rl.infer");
        for (int i = 0; i < num_agents; ++i) {
          actions[static_cast<size_t>(i)] = policy->ActionMean(obs[static_cast<size_t>(i)]);
        }
        Lap(t, &stats->infer_ns, tracer, span);
        stats->infers += num_agents;
        t = NowNs();
        span = Open(tracer, "envs.step");
        VectorStepResult r = env->Step(actions);
        Lap(t, &stats->step_ns, tracer, span);
        ++stats->steps;
        ++result->env_steps;
        const double capacity_full = env->current_bandwidth_bps();
        const double capacity =
            env->config().fair_share_reward
                ? capacity_full / static_cast<double>(env->ActiveFlowCount())
                : capacity_full;
        for (int i = 0; i < num_agents; ++i) {
          checksum = MixDouble(checksum, r.rewards[static_cast<size_t>(i)]);
          if (!env->AgentStarted(i)) {
            continue;
          }
          ++result->agent_steps;
          result->reward_sum += r.rewards[static_cast<size_t>(i)];
          const MonitorReport& mi = env->agent_last_report(i);
          const RewardComponents c =
              ComputeRewardComponents(mi, capacity, env->AgentBaseRttS(i));
          result->o_thr_sum += c.o_thr;
          result->o_lat_sum += c.o_lat;
          result->o_loss_sum += c.o_loss;
          result->throughput_sum_bps += mi.throughput_bps;
          result->avg_rtt_sum_s += mi.avg_rtt_s;
          result->loss_rate_sum += mi.loss_rate;
          checksum = MixDouble(checksum, env->agent_rate_bps(i));
          stats->agent_pkts += static_cast<double>(mi.packets_sent);
          if (mi.packets_acked > 0) {
            stats->rtt_ratio_sum += mi.avg_rtt_s / env->AgentBaseRttS(i);
            ++stats->rtt_samples;
          }
        }
        const bool truncated =
            spec.steps_per_episode > 0 && step + 1 >= spec.steps_per_episode;
        if (r.done || truncated) {
          break;
        }
        obs = std::move(r.observations);
      }
      const double jain = env->LastStepJainIndex();
      result->jain_sum += jain;
      checksum = MixDouble(checksum, jain);
      ++result->episodes;
    }
    result->checksum = checksum;
    const auto* pref = dynamic_cast<const PreferenceFloat32Policy*>(policy);
    stats->pn_recomputes += pref != nullptr ? pref->pn_recompute_count() : 0;
    Lap(shard_start, &stats->shard_ns, tracer, shard_span);
  }

  double reward_sum = 0.0, o_thr = 0.0, o_lat = 0.0, o_loss = 0.0;
  double thr = 0.0, rtt = 0.0, loss = 0.0, jain = 0.0;
  for (const ShardResult& s : fleet.shards) {
    fleet.env_steps += s.env_steps;
    fleet.agent_steps += s.agent_steps;
    fleet.episodes += s.episodes;
    reward_sum += s.reward_sum;
    o_thr += s.o_thr_sum;
    o_lat += s.o_lat_sum;
    o_loss += s.o_loss_sum;
    thr += s.throughput_sum_bps;
    rtt += s.avg_rtt_sum_s;
    loss += s.loss_rate_sum;
    jain += s.jain_sum;
    fleet.checksum = Mix(fleet.checksum, s.checksum);
  }
  const double agent_steps = static_cast<double>(std::max<int64_t>(1, fleet.agent_steps));
  fleet.mean_reward = reward_sum / agent_steps;
  fleet.mean_o_thr = o_thr / agent_steps;
  fleet.mean_o_lat = o_lat / agent_steps;
  fleet.mean_o_loss = o_loss / agent_steps;
  fleet.mean_throughput_bps = thr / agent_steps;
  fleet.mean_avg_rtt_s = rtt / agent_steps;
  fleet.mean_loss_rate = loss / agent_steps;
  fleet.mean_jain = jain / static_cast<double>(std::max(1, fleet.episodes));
  fleet.ok = true;
  ++stats->calls;
  Lap(call_start, &stats->call_ns, tracer, call_span);
  return fleet;
}

bool SameAggregates(const FleetResult& a, const FleetResult& b) {
  auto same = [](double x, double y) { return MixDouble(0, x) == MixDouble(0, y); };
  return a.ok == b.ok && a.env_steps == b.env_steps && a.agent_steps == b.agent_steps &&
         a.episodes == b.episodes && a.checksum == b.checksum &&
         same(a.mean_reward, b.mean_reward) && same(a.mean_o_thr, b.mean_o_thr) &&
         same(a.mean_o_lat, b.mean_o_lat) && same(a.mean_o_loss, b.mean_o_loss) &&
         same(a.mean_throughput_bps, b.mean_throughput_bps) &&
         same(a.mean_avg_rtt_s, b.mean_avg_rtt_s) &&
         same(a.mean_loss_rate, b.mean_loss_rate) && same(a.mean_jain, b.mean_jain);
}

// --- Sim phase -----------------------------------------------------------------

struct SimCcStats {
  double rl_mi_ns = 0.0, rl_ack_ns = 0.0, cubic_ack_ns = 0.0, other_ns = 0.0;
  int64_t rl_mis = 0, rl_acks = 0, cubic_acks = 0;
};

// CongestionControl decorator: times every callback the simulator makes into
// the wrapped scheme (rate/window reads are plain getters and stay untimed).
class TracedCc : public CongestionControl {
 public:
  TracedCc(std::unique_ptr<CongestionControl> inner, bool rl, SimCcStats* stats)
      : inner_(std::move(inner)), rl_(rl), stats_(stats) {}
  CcMode Mode() const override { return inner_->Mode(); }
  std::string Name() const override { return inner_->Name(); }
  bool NeedsPerAckEvents() const override { return inner_->NeedsPerAckEvents(); }
  double PacingRateBps() const override { return inner_->PacingRateBps(); }
  double CwndPackets() const override { return inner_->CwndPackets(); }
  void OnFlowStart(double now_s) override {
    const int64_t t = NowNs();
    inner_->OnFlowStart(now_s);
    stats_->other_ns += static_cast<double>(NowNs() - t);
  }
  void OnAck(const AckInfo& ack) override {
    const int64_t t = NowNs();
    inner_->OnAck(ack);
    const double ns = static_cast<double>(NowNs() - t);
    (rl_ ? stats_->rl_ack_ns : stats_->cubic_ack_ns) += ns;
    ++(rl_ ? stats_->rl_acks : stats_->cubic_acks);
  }
  void OnPacketLost(const LossInfo& loss) override {
    const int64_t t = NowNs();
    inner_->OnPacketLost(loss);
    stats_->other_ns += static_cast<double>(NowNs() - t);
  }
  void OnTimeout(double now_s) override {
    const int64_t t = NowNs();
    inner_->OnTimeout(now_s);
    stats_->other_ns += static_cast<double>(NowNs() - t);
  }
  void OnMonitorInterval(const MonitorReport& report) override {
    const int64_t t = NowNs();
    inner_->OnMonitorInterval(report);
    const double ns = static_cast<double>(NowNs() - t);
    if (rl_) {
      stats_->rl_mi_ns += ns;
      ++stats_->rl_mis;
    } else {
      stats_->other_ns += ns;
    }
  }

 private:
  std::unique_ptr<CongestionControl> inner_;
  bool rl_;
  SimCcStats* stats_;
};

struct SimOutcome {
  double wall_s = 0.0;
  std::vector<double> slice_us;
  double run_ns = 0.0;  // time inside PacketNetwork::Run
  int64_t packets = 0;
  uint64_t digest = 0;
  double utilization = 0.0;
  double loss_rate = 0.0;
  double mocc_rtt_over_base = 0.0;
  double mocc_pkts_per_mi = 0.0;
  double mocc_fair_share = 0.0;  // MOCC delivered bits over 4/5 of the link
  double jain = 0.0;
  bool finite = true;
};

// A link of the Table-3 testing row. A golden-ratio sequence spreads the
// bandwidths evenly over the row for any number of passes; delay and buffer
// are drawn from the row; wire loss stays 0 (the friendliness setting).
LinkParams SimLink(uint64_t seed, int pass) {
  const LinkParamsRange row = TestingRange();
  const double u = std::fmod(Unit(seed * 7919 + 1) + 0.6180339887498949 * pass, 1.0);
  const uint64_t key = SplitMix(seed * 104729 + static_cast<uint64_t>(pass));
  LinkParams link;
  link.bandwidth_bps = row.min_bandwidth_bps + (row.max_bandwidth_bps - row.min_bandwidth_bps) * u;
  link.one_way_delay_s = row.min_one_way_delay_s +
                         (row.max_one_way_delay_s - row.min_one_way_delay_s) * Unit(key + 1);
  link.queue_capacity_pkts =
      row.min_queue_pkts +
      static_cast<int>((row.max_queue_pkts - row.min_queue_pkts) * Unit(key + 2));
  link.random_loss_rate = 0.0;
  return link;
}

// One sim link's network: four MOCC flows of four objectives and one CUBIC
// flow, wrapped in the tracing decorator when `stats` is set.
struct SimNet {
  LinkParams link;
  std::unique_ptr<PacketNetwork> net;
  std::vector<int> ids;
};

SimNet BuildSimNet(const PolicySpec& spec, uint64_t seed, int pass, SimCcStats* stats) {
  SimNet sim;
  sim.link = SimLink(seed, pass);
  const uint64_t key = SplitMix(seed * 15485863ULL + static_cast<uint64_t>(pass));
  sim.net = std::make_unique<PacketNetwork>(sim.link, key);
  const int flows = 5;
  const double initial_rate = std::max(0.1e6, 0.5 * sim.link.bandwidth_bps / flows);
  for (int i = 0; i < flows; ++i) {
    FlowOptions options;
    options.start_time_s = 0.5 * Unit(key + 10 + static_cast<uint64_t>(i));
    const bool rl = i < 4;
    std::unique_ptr<CongestionControl> cc;
    if (rl) {
      cc = spec.MakeController(kSimObjectives[i], initial_rate);
    } else {
      cc = MakeBaselineCc("cubic");
    }
    if (stats != nullptr) {
      cc = std::make_unique<TracedCc>(std::move(cc), rl, stats);
    }
    sim.ids.push_back(sim.net->AddFlow(std::move(cc), options));
  }
  return sim;
}

SimOutcome RunSimLink(const PolicySpec& spec, uint64_t seed, int pass, Tracer* tracer,
                      SimCcStats* stats) {
  SimOutcome out;
  const int64_t start = NowNs();
  const int32_t link_span = Open(tracer, "sim.link");
  int32_t span = Open(tracer, "netsim.build");
  SimNet sim = BuildSimNet(spec, seed, pass, stats);
  const LinkParams& link = sim.link;
  PacketNetwork& net = *sim.net;
  const std::vector<int>& ids = sim.ids;
  const int flows = static_cast<int>(ids.size());
  if (tracer != nullptr) tracer->End(span);
  for (double now = kSliceS; now <= kSimSecondsPerLink + 1e-9; now += kSliceS) {
    const int64_t t = NowNs();
    span = Open(tracer, "netsim.run");
    net.Run(now);
    const int64_t end = NowNs();
    if (tracer != nullptr) tracer->End(span);
    out.run_ns += static_cast<double>(end - t);
    out.slice_us.push_back((end - t) * 1e-3);
  }
  if (tracer != nullptr) tracer->End(link_span);
  out.wall_s = SecondsSince(start);

  double bits = 0.0, acked = 0.0, lost = 0.0, rtt_ratio = 0.0;
  double mocc_bits = 0.0, mocc_pkts = 0.0, mocc_mis = 0.0;
  std::vector<double> thr;
  for (int i = 0; i < flows; ++i) {
    const FlowRecord& rec = net.record(ids[static_cast<size_t>(i)]);
    out.packets += rec.total_sent;
    bits += static_cast<double>(rec.bits_acked);
    acked += static_cast<double>(rec.total_acked);
    lost += static_cast<double>(rec.total_lost);
    thr.push_back(static_cast<double>(rec.bits_acked));
    uint64_t h = Mix(out.digest, static_cast<uint64_t>(rec.total_sent));
    h = Mix(h, static_cast<uint64_t>(rec.total_acked));
    h = Mix(h, static_cast<uint64_t>(rec.total_lost));
    for (const MiSample& mi : rec.mi_samples()) {
      h = MixDouble(MixDouble(h, mi.throughput_bps), mi.avg_rtt_s);
      out.finite = out.finite && std::isfinite(mi.throughput_bps) && std::isfinite(mi.avg_rtt_s);
    }
    out.digest = h;
    if (i < 4) {
      rtt_ratio += rec.AvgRttS() / link.BaseRttS() / 4.0;
      mocc_bits += static_cast<double>(rec.bits_acked);
      mocc_pkts += static_cast<double>(rec.total_sent);
      mocc_mis += static_cast<double>(rec.mi_samples().size());
    }
  }
  double sum = 0.0, sq = 0.0;
  for (double x : thr) {
    sum += x;
    sq += x * x;
  }
  out.jain = sq > 0.0 ? sum * sum / (static_cast<double>(thr.size()) * sq) : 0.0;
  out.utilization = bits / (link.bandwidth_bps * kSimSecondsPerLink);
  out.loss_rate = acked + lost > 0.0 ? lost / (acked + lost) : 0.0;
  out.mocc_rtt_over_base = rtt_ratio;
  out.mocc_pkts_per_mi = mocc_pkts / std::max(1.0, mocc_mis);
  out.mocc_fair_share = mocc_bits / (0.8 * link.bandwidth_bps * kSimSecondsPerLink);
  return out;
}

// Run-wide RunFleet aggregates of one scenario.
struct FleetTotals {
  double episodes = 0.0, agent_steps = 0.0, o_thr = 0.0, loss = 0.0, jain = 0.0;
  void Add(const FleetResult& r) {
    episodes += r.episodes;
    agent_steps += static_cast<double>(r.agent_steps);
    o_thr += r.mean_o_thr * static_cast<double>(r.agent_steps);
    loss += r.mean_loss_rate * static_cast<double>(r.agent_steps);
    jain += r.mean_jain * r.episodes;
  }
};

// Bounds on the traffic a scenario generated, set around the committed
// trained policy (run-wide mean_o_thr, loss and Jain; packets and RTT from
// the twin's rounds). An untrained policy ignores the objectives, so the
// mixed-objective parking lot's agents stay near equal (Jain ~0.85 against
// ~0.55 trained) and it queues past the N-leaf RTT bound; an overloading
// policy drives loss far past these bounds.
struct TrafficBounds {
  double o_thr_lo, o_thr_hi, loss_hi, jain_lo, jain_hi, rtt_hi, pkts_lo, pkts_hi;
};
// Packets per step scale with the monitor interval, which follows each
// episode's RTT, so their bound is a sanity range only.
const TrafficBounds kFleetBounds[] = {
    {0.30, 0.90, 0.08, 0.30, 0.75, 40.0, 1.0, 1000.0},  // mixed-objective-parking-lot
    {0.55, 1.00, 0.10, 0.60, 1.00, 2.0, 1.0, 1000.0},   // n-leaf-dumbbell
};

void CheckFleetTraffic(int s, const FleetTotals& t, const FleetTwinStats& twin,
                       Result* result) {
  const TrafficBounds& b = kFleetBounds[s];
  const double pkts = twin.agent_pkts / static_cast<double>(std::max<int64_t>(1, twin.steps));
  const double rtt =
      twin.rtt_ratio_sum / static_cast<double>(std::max<int64_t>(1, twin.rtt_samples));
  const double o_thr = t.o_thr / t.agent_steps;
  const double loss = t.loss / t.agent_steps;
  const double jain = t.jain / t.episodes;
  std::printf("fleet traffic %-28s agent_pkts/step=%.2f loss=%.4f mean_o_thr=%.3f jain=%.3f "
              "rtt/base=%.3f (%.0f episodes; pkts and RTT from %lld twin steps)\n",
              kFleetScenarios[s], pkts, loss, o_thr, jain, rtt, t.episodes,
              static_cast<long long>(twin.steps));
  char what[256];
  std::snprintf(what, sizeof(what),
                "fleet %s traffic in bounds: mean_o_thr [%.2f, %.2f], loss <= %.2f, "
                "Jain [%.2f, %.2f], RTT/base [1, %.1f], agent pkts/step [%.0f, %.0f]",
                kFleetScenarios[s], b.o_thr_lo, b.o_thr_hi, b.loss_hi, b.jain_lo, b.jain_hi,
                b.rtt_hi, b.pkts_lo, b.pkts_hi);
  result->Check(o_thr >= b.o_thr_lo && o_thr <= b.o_thr_hi && loss <= b.loss_hi &&
                    jain >= b.jain_lo && jain <= b.jain_hi && rtt >= 1.0 && rtt <= b.rtt_hi &&
                    pkts >= b.pkts_lo && pkts <= b.pkts_hi,
                what);
}

bool FleetFinite(const FleetResult& r) {
  return std::isfinite(r.mean_reward) && std::isfinite(r.mean_o_thr) &&
         std::isfinite(r.mean_o_lat) && std::isfinite(r.mean_o_loss) &&
         std::isfinite(r.mean_throughput_bps) && std::isfinite(r.mean_avg_rtt_s) &&
         std::isfinite(r.mean_loss_rate) && std::isfinite(r.mean_jain);
}

constexpr int kTwinRounds = 4;  // rounds the shard twin replays in every run
constexpr int kPassesPerBlock = 8;  // rates are medians over blocks of passes
constexpr int kSetups = 9;
// Set-up builds the same envs and network for every seed, so set-up time does
// not depend on the seed's links.
constexpr uint64_t kSetupSeed = 0x5eed;

// One set-up: checkpoint load, one env per fleet scenario (built and reset)
// and one sim network with its per-flow controllers. Returns its seconds.
double SetupOnce(const Options& options, int i, PolicySpec* spec) {
  const int64_t start = NowNs();
  *spec = LoadSpec(options.model_path);
  std::shared_ptr<PreferenceActorCritic> model = spec->ResolveModel();
  if (model == nullptr) return SecondsSince(start);
  for (int s = 0; s < kFleetScenarioCount; ++s) {
    std::string error;
    std::optional<Scenario> scenario =
        ScenarioRegistry::Global().Resolve(kFleetScenarios[s], &error);
    if (scenario.has_value()) {
      scenario->MakeMultiFlowEnv(model->config().MakeEnvConfig(), kSetupSeed + i)->Reset();
    }
  }
  BuildSimNet(*spec, kSetupSeed, i, nullptr);
  return SecondsSince(start);
}

}  // namespace

void RunEvaluate(const Options& options, Result* result) {
  std::printf("evaluate: fleet=%s,%s (serial RunFleet, 1 shard x 1 episode per call), "
              "sim=4 MOCC + 1 CUBIC on Table-3 testing-row links, %.0f s each, float32\n",
              kFleetScenarios[0], kFleetScenarios[1], kSimSecondsPerLink);
  // Set-up, several times; the last one serves.
  std::vector<double> setup;
  PolicySpec spec;
  for (int i = 0; i < kSetups; ++i) setup.push_back(SetupOnce(options, i, &spec));
  if (!CheckPinnedModel(spec.ResolveModel().get(), result)) return;

  std::vector<double> pass_s, round_us, slice_us, block_fleet_rate, block_sim_rate;
  double block_episodes = 0.0, block_fleet_s = 0.0, block_sim_s = 0.0;
  double fleet_s = 0.0, sim_s = 0.0;
  FleetTotals totals[kFleetScenarioCount];
  std::vector<FleetResult> kept[kFleetScenarioCount];
  double util = 0.0, sim_loss = 0.0, sim_jain = 0.0, sim_rtt = 0.0, sim_pkts = 0.0,
         sim_share = 0.0;
  uint64_t sim_digest = 0;
  int passes = 0;
  const int64_t start = NowNs();
  ReportFirstTimedCall(options, start);
  for (; passes == 0 || SecondsSince(start) < options.seconds; ++passes) {
    if (passes % kPassesPerBlock == 0) RotateCpu(passes / kPassesPerBlock);
    const int64_t t0 = NowNs();
    for (int s = 0; s < kFleetScenarioCount; ++s) {
      const FleetResult r = RunFleet(MakeFleetSpec(spec, s, options.seed, passes));
      ++result->attempted;
      if (!r.ok || !FleetFinite(r)) {
        ++result->failed;
        result->Fail(std::string("RunFleet ok with finite aggregates: ") + r.error);
        continue;
      }
      totals[s].Add(r);
      if (passes < kTwinRounds) kept[s].push_back(r);
    }
    const double round_s = SecondsSince(t0);
    const SimOutcome sim = RunSimLink(spec, options.seed, passes, nullptr, nullptr);
    ++result->attempted;
    if (!sim.finite) {
      ++result->failed;
      result->Fail("sim: flow records are finite");
    }
    round_us.push_back(round_s * 1e6);
    slice_us.insert(slice_us.end(), sim.slice_us.begin(), sim.slice_us.end());
    util += sim.utilization;
    sim_loss += sim.loss_rate;
    sim_jain += sim.jain;
    sim_rtt += sim.mocc_rtt_over_base;
    sim_pkts += sim.mocc_pkts_per_mi;
    sim_share += sim.mocc_fair_share;
    if (passes == 0) sim_digest = sim.digest;
    fleet_s += round_s;
    sim_s += sim.wall_s;
    pass_s.push_back(round_s + sim.wall_s);
    block_episodes += kFleetScenarioCount;
    block_fleet_s += round_s;
    block_sim_s += sim.wall_s;
    if ((passes + 1) % kPassesPerBlock == 0) {
      block_fleet_rate.push_back(block_episodes / block_fleet_s);
      block_sim_rate.push_back(kPassesPerBlock * kSimSecondsPerLink / block_sim_s);
      block_episodes = block_fleet_s = block_sim_s = 0.0;
    }
  }
  if (block_fleet_rate.empty()) {  // a run shorter than one block
    block_fleet_rate.push_back(block_episodes / block_fleet_s);
    block_sim_rate.push_back(passes * kSimSecondsPerLink / block_sim_s);
  }
  const double n = static_cast<double>(passes);

  // The shard twin reproduces RunFleet on the first rounds, and its per-step
  // view gives the packet and RTT figures of the traffic checks.
  for (int s = 0; s < kFleetScenarioCount; ++s) {
    FleetTwinStats stats;
    bool same = true;
    for (size_t pass = 0; pass < kept[s].size(); ++pass) {
      const FleetResult twin = FleetTwin(
          MakeFleetSpec(spec, s, options.seed, static_cast<int>(pass)), nullptr, &stats);
      same = same && SameAggregates(twin, kept[s][pass]);
    }
    result->Check(same && !kept[s].empty(),
                  std::string("fleet shard twin reproduces RunFleet's aggregates on ") +
                      kFleetScenarios[s]);
    CheckFleetTraffic(s, totals[s], stats, result);
  }
  std::printf("fleet: first-round checksums %016llx %016llx\n",
              static_cast<unsigned long long>(kept[0].empty() ? 0 : kept[0][0].checksum),
              static_cast<unsigned long long>(kept[1].empty() ? 0 : kept[1][0].checksum));
  std::printf("sim traffic: utilization=%.3f loss=%.4f jain=%.3f mocc_share_of_fair=%.3f "
              "mocc_pkts/MI=%.1f mocc_rtt/base=%.2f over %d links; first-link flow-record "
              "digest %016llx\n",
              util / n, sim_loss / n, sim_jain / n, sim_share / n, sim_pkts / n, sim_rtt / n,
              passes, static_cast<unsigned long long>(sim_digest));
  // The CUBIC flow fills the testing row's deep buffers, so the MOCC flows'
  // RTT sits well above base and their share well below fair.
  result->Check(util / n >= 0.85 && util / n <= 1.0 && sim_loss / n <= 0.15 &&
                    sim_jain / n >= 0.3 && sim_share / n >= 0.1 && sim_share / n <= 1.25 &&
                    sim_pkts / n >= 1.0 && sim_rtt / n >= 1.0 && sim_rtt / n <= 50.0,
                "sim traffic in bounds: utilization [0.85, 1], loss <= 0.15, Jain >= 0.3, "
                "MOCC share of fair [0.1, 1.25], MOCC pkts/MI >= 1, MOCC RTT/base [1, 50]");

  double episodes = 0.0;
  for (const FleetTotals& t : totals) episodes += t.episodes;
  const std::string blocks = "median over " + std::to_string(block_fleet_rate.size()) +
                             " blocks of " + std::to_string(kPassesPerBlock) + " passes";
  Report("fleet_episodes_per_s", Median(block_fleet_rate), "1/s",
         blocks + "; " + std::to_string(static_cast<int>(episodes)) + " episodes in " +
             std::to_string(fleet_s) + " s");
  Report("sim_seconds_per_s", Median(block_sim_rate), "1/s",
         blocks + "; " + std::to_string(passes) + " links in " + std::to_string(sim_s) + " s");
  Report("fleet round p50", Percentile(round_us, 0.5), "us",
         "n=" + std::to_string(round_us.size()) + " rounds");
  Report("fleet round p99", Percentile(round_us, 0.99), "us",
         "n=" + std::to_string(round_us.size()) + " rounds");
  Report("sim slice p50", Percentile(slice_us, 0.5), "us",
         "n=" + std::to_string(slice_us.size()) + " slices of 0.25 sim-s");
  Report("sim slice p99", Percentile(slice_us, 0.99), "us",
         "n=" + std::to_string(slice_us.size()) + " slices of 0.25 sim-s");
  result->Set("setup_s", Median(setup), "s");
  result->Set("job_s", Median(pass_s), "s");
  result->Set("stage1_per_s", Median(block_fleet_rate), "1/s");
  result->Set("stage2_per_s", Median(block_sim_rate), "1/s");
  result->Set("stage1_p99_us", Percentile(round_us, 0.99), "us");
  result->Set("stage2_p99_us", Percentile(slice_us, 0.99), "us");
}

void TraceEvaluate(const Options& options, double seconds, Tracer* tracer, Result* result) {
  const PolicySpec spec = LoadSpec(options.model_path);
  if (!result->Check(spec.ResolveModel() != nullptr, "checkpoint loads")) return;

  // Untraced reference over a time budget, then the same passes traced.
  double untraced_s = 0.0;
  int passes = 0;
  const int64_t start = NowNs();
  while (passes == 0 || SecondsSince(start) < seconds * 0.5) {
    for (int s = 0; s < kFleetScenarioCount; ++s) {
      result->Check(RunFleet(MakeFleetSpec(spec, s, options.seed, passes)).ok, "RunFleet ok");
    }
    RunSimLink(spec, options.seed, passes, nullptr, nullptr);
    ++passes;
  }
  untraced_s = SecondsSince(start);

  // The shard twin must reproduce RunFleet before its spans stand for it.
  for (int s = 0; s < kFleetScenarioCount; ++s) {
    const FleetSpec fs = MakeFleetSpec(spec, s, options.seed, 0);
    FleetTwinStats scratch;
    result->Check(SameAggregates(FleetTwin(fs, nullptr, &scratch), RunFleet(fs)),
                  std::string("fleet shard twin reproduces RunFleet on ") + kFleetScenarios[s]);
  }

  FleetTwinStats fleet[kFleetScenarioCount];
  SimCcStats cc;
  double run_ns = 0.0, packets = 0.0;
  const int64_t traced_start = NowNs();
  const size_t first_span = tracer->spans().size();
  const int32_t root = tracer->Begin("evaluate.traced");
  for (int pass = 0; pass < passes; ++pass) {
    for (int s = 0; s < kFleetScenarioCount; ++s) {
      FleetTwin(MakeFleetSpec(spec, s, options.seed, pass), tracer, &fleet[s]);
      ++result->attempted;
    }
    const SimOutcome sim = RunSimLink(spec, options.seed, pass, tracer, &cc);
    ++result->attempted;
    run_ns += sim.run_ns;
    packets += static_cast<double>(sim.packets);
  }
  tracer->End(root);
  const double traced_s = SecondsSince(traced_start);
  const double unattributed = tracer->UnattributedShare(
      first_span, {"evaluate.traced", "fleet.call", "fleet.shard", "sim.link"});

  for (int s = 0; s < kFleetScenarioCount; ++s) {
    const FleetTwinStats& f = fleet[s];
    const std::string p = std::string(".fleet.") + kFleetScenarios[s] + ".";
    const double steps = static_cast<double>(std::max<int64_t>(1, f.steps));
    result->Set("envs" + p + "step_us", f.step_ns * 1e-3 / steps, "us");
    result->Set("envs" + p + "step_ns_per_agent_pkt", f.step_ns / std::max(1.0, f.agent_pkts),
                "ns");
    result->Set("netsim" + p + "agent_pkts_per_step", f.agent_pkts / steps, "count");
    result->Set("rl" + p + "infer_ns",
                f.infer_ns / static_cast<double>(std::max<int64_t>(1, f.infers)), "ns");
    result->Set("rl" + p + "pn_hit_ratio",
                1.0 - static_cast<double>(f.pn_recomputes) /
                          static_cast<double>(std::max<int64_t>(1, f.infers)),
                "ratio");
    result->Set(std::string("fleet.") + kFleetScenarios[s] + ".overhead_ms",
                (f.call_ns - f.shard_ns) * 1e-6 /
                    static_cast<double>(std::max<int64_t>(1, f.calls)),
                "ms");
    result->Set("envs" + p + "reset_us",
                f.reset_ns * 1e-3 / static_cast<double>(std::max<int64_t>(1, f.resets)), "us");
    const std::string c = std::string("fleet.") + kFleetScenarios[s] + ".";
    tracer->Count(c + "calls", static_cast<double>(f.calls));
    tracer->Count(c + "env_steps", static_cast<double>(f.steps));
    tracer->Count(c + "resets", static_cast<double>(f.resets));
    tracer->Count(c + "action_means", static_cast<double>(f.infers));
    tracer->Count(c + "pn_recomputes", static_cast<double>(f.pn_recomputes));
    tracer->Count(c + "agent_pkts", f.agent_pkts);
  }
  tracer->Count("sim.links", passes);
  tracer->Count("sim.pkts", packets);
  tracer->Count("sim.rl_mis", static_cast<double>(cc.rl_mis));
  tracer->Count("sim.rl_acks", static_cast<double>(cc.rl_acks));
  tracer->Count("sim.cubic_acks", static_cast<double>(cc.cubic_acks));
  tracer->Count("sim.cc_callback_ns", cc.rl_mi_ns + cc.rl_ack_ns + cc.cubic_ack_ns + cc.other_ns);
  const double cc_ns = cc.rl_mi_ns + cc.rl_ack_ns + cc.cubic_ack_ns + cc.other_ns;
  result->Set("netsim.sim.self_ns_per_pkt", (run_ns - cc_ns) / std::max(1.0, packets), "ns");
  result->Set("netsim.sim.pkts_per_sim_s", packets / (passes * kSimSecondsPerLink), "1/s");
  result->Set("baselines.sim.rl_mi_us",
              cc.rl_mi_ns * 1e-3 / static_cast<double>(std::max<int64_t>(1, cc.rl_mis)), "us");
  result->Set("baselines.sim.rl_ack_ns",
              cc.rl_ack_ns / static_cast<double>(std::max<int64_t>(1, cc.rl_acks)), "ns");
  result->Set("baselines.sim.cubic_ack_ns",
              cc.cubic_ack_ns / static_cast<double>(std::max<int64_t>(1, cc.cubic_acks)), "ns");
  result->Set("trace.evaluate.overhead_pct",
              (traced_s / untraced_s - 1.0) * 100.0, "%");
  result->Set("trace.evaluate.unattributed_pct", unattributed * 100.0, "%");
  result->Check(unattributed <= 0.10, "named spans cover >= 90% of the traced evaluate run");
  std::printf("evaluate trace: %d passes, untraced %.3f s, traced %.3f s\n", passes,
              untraced_s, traced_s);
}

}  // namespace perfbench
