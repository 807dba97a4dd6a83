// mocc_simulate — runs one congestion-control scheme on a configured bottleneck link in
// the packet-level simulator and prints a per-second CSV timeline (throughput, RTT,
// loss), suitable for plotting. With --scenario, the link, trace, topology, flow count,
// competitor flows and per-agent objective assignment come from the named scenario
// instead (the scheme drives every agent flow), and per-flow totals plus the agents'
// Jain index are reported. Without it, the --bw/--owd/--queue/--loss link runs as a
// one-agent scenario. Either way the episode network (topology, bottleneck link
// models, flow paths, reward RTT references) comes from BuildEpisodeNetwork, the
// builder MultiFlowCcEnv trains on; the link is sampled before the objective plan's
// weights and the network is seeded from --seed, so a run reproduces a scenario's
// structure, not a particular training episode's draws.
//
// Heterogeneous objectives & online preference switching (MOCC flows only):
//   --objectives assigns a different weight vector to each agent flow (cycled),
//   overriding the scenario's objective plan; --switch schedules mid-run preference
//   changes applied to the live controllers through SetObservationPrefix — the
//   paper's online adjustment, no retraining or restart. The final report decomposes
//   each agent's steady-state behaviour into the Eq. (2) reward components
//   (O_thr/O_lat/O_loss) under its own weight vector and prints Jain fairness within
//   each objective class (flows wanting the same trade-off should share fairly;
//   flows wanting different trade-offs deliberately should not).
//
// Weight vectors are validated strictly at this entry point: components must sum to 1
// and each must be at least kWeightVectorFloor (0.05) — out-of-region requirements are
// rejected with an error instead of silently projected (see src/core/weight_vector.h).
//
// Usage:
//   mocc_simulate --scheme NAME [--model PATH] [--weights T,L,S] [--bw MBPS] [--owd MS]
//                 [--queue PKTS] [--loss FRAC] [--duration S] [--seed N]
//                 [--mahimahi TRACE] [--scenario NAME] [--list-scenarios]
//                 [--precision double|float32|int8] [--guard]
//                 [--objectives T,L,S[;T,L,S...]] [--switch TIME:T,L,S]...
//                 [--fleet] [--shards N] [--episodes N] [--steps N] [--threads N]
//
//   --fleet runs shards of isolated scenario instances across the thread pool
//   (src/fleet/fleet.h) instead of one timeline: per-shard CSV on stdout,
//   aggregate rollups + the bit-identity checksum on stderr. Results are
//   bit-identical for any --threads value (1 = the serial reference).
//
//   NAME in {mocc, cubic, newreno, vegas, bbr, copa, allegro, vivace}
//   --precision float32 runs MOCC's per-MI inference through the frozen float32
//   deployment replica (src/rl/inference_policy.h) instead of the double path.
//   --guard wraps every MOCC flow's decisions in the GuardedPolicy circuit breaker
//   (src/rl/guarded_policy.h): violations degrade the flow to a warm-standby CUBIC
//   fallback with periodic half-open probes; trip/fallback/recovery counts are
//   reported per flow. All MOCC knobs flow through one PolicySpec
//   (src/core/policy_spec.h) — the same spec the serving layer consumes, and
//   every per-flow controller decides on the serving engine. Fault-injection
//   (blackout, flaky-link, loss-burst), AQM/ECN (red-ecn, codel) and wifi-jitter
//   scenarios get their bottleneck link models from the episode builder, and
//   MOCC agent flows are ECN-capable whenever the scenario's AQM marks.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/common/stats.h"
#include "src/core/policy_spec.h"
#include "src/core/preference_model.h"
#include "src/core/reward.h"
#include "src/envs/scenario.h"
#include "src/fleet/fleet.h"
#include "src/netsim/packet_network.h"

namespace {

using namespace mocc;

// Steady-state aggregates of one flow over [from_s, to_s).
struct WindowStats {
  double throughput_bps = 0.0;
  double avg_rtt_s = 0.0;
  double loss_rate = 0.0;
};

WindowStats MeasureWindow(const FlowRecord& rec, double from_s, double to_s) {
  WindowStats stats;
  stats.throughput_bps = rec.AvgThroughputBps(from_s, to_s);
  double rtt_sum = 0.0;
  double loss_sum = 0.0;
  int count = 0;
  for (const auto& mi : rec.mi_samples()) {
    if (mi.time_s >= from_s && mi.time_s < to_s) {
      rtt_sum += mi.avg_rtt_s;
      loss_sum += mi.loss_rate;
      ++count;
    }
  }
  if (count > 0) {
    stats.avg_rtt_s = rtt_sum / count;
    stats.loss_rate = loss_sum / count;
  } else {
    // No monitor interval completed inside the window (long-RTT flows stretch their
    // MIs); fall back to the whole-run mean rather than reporting a 0 ms RTT.
    stats.avg_rtt_s = rec.AvgRttS();
    stats.loss_rate = rec.LossRate();
  }
  return stats;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mocc;
  std::string scheme = "mocc";
  std::string model_path = "mocc_model.bin";
  std::string mahimahi_path;
  std::string scenario_name;
  WeightVector weights = ThroughputObjective();
  std::vector<WeightVector> objective_list;  // --objectives, cycled over agent flows
  std::vector<PreferenceSwitch> switches;    // --switch plus the scenario's plan
  LinkParams link;
  link.bandwidth_bps = 20e6;
  link.one_way_delay_s = 0.020;
  link.queue_capacity_pkts = 700;
  double duration = 60.0;
  uint64_t seed = 1;
  bool link_flags_given = false;
  Precision precision = Precision::kDouble;
  bool guard = false;
  bool fleet = false;
  int fleet_shards = 8;
  int fleet_episodes = 1;
  int fleet_steps = 0;
  int fleet_threads = 0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--scheme") {
      scheme = next();
    } else if (arg == "--model") {
      model_path = next();
    } else if (arg == "--weights") {
      std::string error;
      if (!ParseWeightVector(next(), &weights, &error)) {
        std::fprintf(stderr, "--weights: %s\n", error.c_str());
        return 2;
      }
    } else if (arg == "--objectives") {
      // Semicolon-separated weight triples; agent flow i gets entry i % size.
      const std::string spec = next();
      size_t begin = 0;
      while (begin <= spec.size()) {
        size_t end = spec.find(';', begin);
        if (end == std::string::npos) {
          end = spec.size();
        }
        const std::string triple = spec.substr(begin, end - begin);
        if (!triple.empty()) {
          WeightVector w;
          std::string error;
          if (!ParseWeightVector(triple, &w, &error)) {
            std::fprintf(stderr, "--objectives: %s\n", error.c_str());
            return 2;
          }
          objective_list.push_back(w);
        }
        begin = end + 1;
      }
      if (objective_list.empty()) {
        std::fprintf(stderr, "--objectives: empty objective list\n");
        return 2;
      }
    } else if (arg == "--switch") {
      // TIME:T,L,S — at TIME seconds, every agent flow switches to <T,L,S>.
      const std::string spec = next();
      const size_t colon = spec.find(':');
      PreferenceSwitch sw;
      bool time_ok = false;
      if (colon != std::string::npos && colon > 0) {
        const std::string time_text = spec.substr(0, colon);
        char* time_end = nullptr;
        sw.time_s = std::strtod(time_text.c_str(), &time_end);
        time_ok = time_end != nullptr && *time_end == '\0';
      }
      std::string error;
      if (!time_ok ||
          !ParseWeightVector(spec.substr(colon + 1), &sw.to, &error)) {
        std::fprintf(stderr, "--switch expects TIME:T,L,S%s%s\n",
                     error.empty() ? "" : " — ", error.c_str());
        return 2;
      }
      switches.push_back(sw);
    } else if (arg == "--bw") {
      link.bandwidth_bps = std::atof(next()) * 1e6;
      link_flags_given = true;
    } else if (arg == "--owd") {
      link.one_way_delay_s = std::atof(next()) / 1e3;
      link_flags_given = true;
    } else if (arg == "--queue") {
      link.queue_capacity_pkts = std::atoi(next());
      link_flags_given = true;
    } else if (arg == "--loss") {
      link.random_loss_rate = std::atof(next());
      link_flags_given = true;
    } else if (arg == "--duration") {
      duration = std::atof(next());
    } else if (arg == "--seed") {
      seed = static_cast<uint64_t>(std::atoll(next()));
    } else if (arg == "--mahimahi") {
      mahimahi_path = next();
    } else if (arg == "--scenario") {
      scenario_name = next();
    } else if (arg == "--precision") {
      if (!ParsePrecision(next(), &precision)) {
        std::fprintf(stderr, "--precision expects double, float32 or int8\n");
        return 2;
      }
    } else if (arg == "--guard") {
      guard = true;
    } else if (arg == "--fleet") {
      fleet = true;
    } else if (arg == "--shards") {
      fleet_shards = std::atoi(next());
    } else if (arg == "--episodes") {
      fleet_episodes = std::atoi(next());
    } else if (arg == "--steps") {
      fleet_steps = std::atoi(next());
    } else if (arg == "--threads") {
      fleet_threads = std::atoi(next());
    } else if (arg == "--list-scenarios") {
      PrintScenarioCatalog(stdout);
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: mocc_simulate --scheme NAME [--model PATH] [--weights T,L,S]\n"
          "                     [--bw MBPS] [--owd MS] [--queue PKTS] [--loss FRAC]\n"
          "                     [--duration S] [--seed N] [--mahimahi TRACE]\n"
          "                     [--scenario NAME] [--list-scenarios]\n"
          "                     [--precision double|float32|int8] [--guard]\n"
          "                     [--objectives T,L,S[;T,L,S...]] [--switch TIME:T,L,S]\n"
          "                     [--fleet] [--shards N] [--episodes N] [--steps N]\n"
          "                     [--threads N]\n"
          "\n"
          "  --fleet shards N isolated instances of the scenario across the thread\n"
          "  pool (src/fleet/fleet.h) and prints per-shard and aggregate rollups;\n"
          "  results are bit-identical for any --threads (0 = all cores, 1 =\n"
          "  serial reference). MOCC only; the scenario defaults to many-flow.\n"
          "  --objectives assigns agent flow i the i%%N-th weight triple (MOCC only),\n"
          "  overriding the scenario's objective plan; --switch (repeatable)\n"
          "  schedules an online preference change for every agent flow at TIME s.\n"
          "  Weight triples must sum to 1 with every component >= 0.05 (the trained\n"
          "  preference region); out-of-region triples are rejected, not clamped.\n");
      return 0;
    } else {
      std::fprintf(stderr, "unknown argument: %s (try --help)\n", arg.c_str());
      return 2;
    }
  }

  // Scenario selection (link/trace/flow schedule/objective plan come from the
  // catalog); a plain run is one agent on the --bw/--owd/--queue/--loss link.
  Scenario scenario;
  scenario.fixed_link = link;
  if (!scenario_name.empty()) {
    std::string error;
    std::optional<Scenario> resolved =
        ScenarioRegistry::Global().Resolve(scenario_name, &error);
    if (!resolved.has_value()) {
      std::fprintf(stderr, "--scenario: %s (try --list-scenarios)\n", error.c_str());
      return 2;
    }
    scenario = std::move(*resolved);
    if (link_flags_given) {
      std::fprintf(stderr,
                   "warning: --scenario defines the link; ignoring --bw/--owd/"
                   "--queue/--loss\n");
    }
  }

  Rng rng(seed);
  link = scenario.SampleLink(&rng);

  // The agent-scheme factory: one controller per agent flow (MOCC flows share one
  // loaded model).
  std::shared_ptr<PreferenceActorCritic> model;
  if (scheme == "mocc") {
    model = PreferenceActorCritic::LoadFromFile(model_path, MoccConfig{});
    if (model == nullptr) {
      std::fprintf(stderr, "cannot load %s; train one with tools/mocc_train\n",
                   model_path.c_str());
      return 1;
    }
  }
  if (scheme != "mocc" && MakeBaselineCc(scheme) == nullptr) {
    std::fprintf(stderr, "unknown scheme '%s'\n", scheme.c_str());
    return 2;
  }
  if (precision != Precision::kDouble && scheme != "mocc") {
    std::fprintf(stderr, "warning: --precision %s only affects --scheme mocc\n",
                 PrecisionName(precision));
  }
  if (guard && scheme != "mocc") {
    std::fprintf(stderr, "warning: --guard only affects --scheme mocc\n");
  }

  // All MOCC deployment knobs in one spec: the controller factory and the serving
  // service are built from the same description.
  PolicySpec spec;
  spec.WithModel(model).WithPrecision(precision).WithGuard(guard).WithName("MOCC");

  // Fleet mode: shard isolated scenario instances across the pool and report
  // the epoch aggregate instead of one timeline.
  if (fleet) {
    if (scheme != "mocc") {
      std::fprintf(stderr, "--fleet requires --scheme mocc\n");
      return 2;
    }
    FleetSpec fleet_spec;
    fleet_spec.scenario = scenario_name.empty() ? "many-flow" : scenario_name;
    fleet_spec.num_shards = fleet_shards;
    fleet_spec.episodes_per_shard = fleet_episodes;
    fleet_spec.steps_per_episode = fleet_steps;
    fleet_spec.seed = seed;
    fleet_spec.policy = spec;
    fleet_spec.threads = fleet_threads;
    const FleetResult result = RunFleet(fleet_spec);
    if (!result.ok) {
      std::fprintf(stderr, "--fleet: %s\n", result.error.c_str());
      return 1;
    }
    std::printf("shard,seed,episodes,env_steps,agent_steps,mean_reward,mean_jain\n");
    for (const ShardResult& s : result.shards) {
      const double steps = static_cast<double>(std::max<int64_t>(1, s.agent_steps));
      std::printf("%d,%llu,%d,%lld,%lld,%.6f,%.4f\n", s.shard,
                  static_cast<unsigned long long>(s.seed), s.episodes,
                  static_cast<long long>(s.env_steps),
                  static_cast<long long>(s.agent_steps), s.reward_sum / steps,
                  s.jain_sum / static_cast<double>(std::max(1, s.episodes)));
    }
    std::fprintf(stderr,
                 "fleet %s: %d shards, %d episodes, %lld env steps, %lld agent "
                 "steps\n",
                 fleet_spec.scenario.c_str(), fleet_spec.num_shards, result.episodes,
                 static_cast<long long>(result.env_steps),
                 static_cast<long long>(result.agent_steps));
    std::fprintf(stderr,
                 "mean reward %.6f (O_thr %.4f O_lat %.4f O_loss %.4f), "
                 "throughput %.3f Mbps, rtt %.1f ms, loss %.4f, Jain %.4f\n",
                 result.mean_reward, result.mean_o_thr, result.mean_o_lat,
                 result.mean_o_loss, result.mean_throughput_bps / 1e6,
                 result.mean_avg_rtt_s * 1e3, result.mean_loss_rate,
                 result.mean_jain);
    std::fprintf(stderr, "checksum %016llx\n",
                 static_cast<unsigned long long>(result.checksum));
    return 0;
  }

  const int num_agents = scenario.num_agents;

  // Per-agent objective assignment, in override order: --weights for everyone, then
  // the scenario's objective plan (fixed mixes cycled / per-episode sample), then an
  // explicit --objectives list. Only MOCC consumes weights; other schemes warn.
  std::vector<WeightVector> agent_weights(static_cast<size_t>(num_agents), weights);
  if (scenario.HasObjectivePlan()) {
    // The env's own episode-weight derivation, so the weights this report prints
    // follow the rules the scenario trains with.
    agent_weights = scenario.objectives.EpisodeWeights(
        num_agents, std::move(agent_weights), &rng);
    // An explicit --objectives overrides the WHOLE plan, scheduled switches
    // included — otherwise the plan would silently discard the user's requested
    // weights mid-run. The user's own --switch flags still apply.
    if (objective_list.empty()) {
      switches.insert(switches.end(), scenario.objectives.switches.begin(),
                      scenario.objectives.switches.end());
    } else {
      std::fprintf(stderr,
                   "warning: --objectives overrides the scenario's objective plan\n");
    }
  }
  if (!objective_list.empty()) {
    for (int i = 0; i < num_agents; ++i) {
      agent_weights[static_cast<size_t>(i)] =
          objective_list[static_cast<size_t>(i) % objective_list.size()];
    }
  }
  if (scheme != "mocc" && (!objective_list.empty() || !switches.empty())) {
    std::fprintf(stderr,
                 "warning: --objectives/--switch only affect --scheme mocc\n");
    switches.clear();
  }
  std::stable_sort(switches.begin(), switches.end(),
                   [](const PreferenceSwitch& a, const PreferenceSwitch& b) {
                     return a.time_s < b.time_s;
                   });

  // The episode network MultiFlowCcEnv trains on: topology, bottleneck link
  // models (fault and jitter phases drawn here, in the env's order), agent and
  // competitor paths and the agents' reward RTT references.
  EpisodeNetwork episode = BuildEpisodeNetwork(scenario, link, &rng);
  PacketNetwork net(episode.topology, seed);
  if (!mahimahi_path.empty()) {
    if (scenario.trace_generator) {
      std::fprintf(stderr,
                   "warning: --mahimahi overrides the scenario's bandwidth schedule\n");
    }
    BandwidthTrace trace = BandwidthTrace::FromMahimahiFile(mahimahi_path);
    if (trace.empty()) {
      std::fprintf(stderr, "cannot read mahimahi trace %s\n", mahimahi_path.c_str());
      return 1;
    }
    net.SetBandwidthTrace(std::move(trace));
  } else if (scenario.trace_generator) {
    net.SetBandwidthTrace(scenario.trace_generator(link, &rng));
  }

  std::vector<int> agent_flows;
  std::vector<int> competitor_flows;
  // MOCC controllers stay addressable for online preference switching (owned by net).
  std::vector<RlRateController*> agent_controllers;
  // Initial rate, the Eq. (1) update's slow-start analogue: a quarter of the pipe for
  // a lone flow (the historical heuristic), but a conservative half of the per-flow
  // fair share under contention — N flows each starting at 0.25x of a slow training
  // link would bury a 3000-packet queue seconds deep before the first MI completes.
  const int scenario_flow_count =
      num_agents + static_cast<int>(scenario.competitor_schemes.size());
  const double initial_rate_bps =
      scenario_flow_count > 1
          ? std::max(0.1e6, 0.5 * link.bandwidth_bps /
                                static_cast<double>(scenario_flow_count))
          : std::max(2e6, 0.25 * link.bandwidth_bps);
  for (int i = 0; i < num_agents; ++i) {
    FlowOptions& options = episode.agents[static_cast<size_t>(i)];
    options.start_time_s = static_cast<double>(i) * scenario.agent_stagger_s;
    std::unique_ptr<CongestionControl> cc;
    if (scheme == "mocc") {
      auto controller =
          spec.MakeController(agent_weights[static_cast<size_t>(i)], initial_rate_bps);
      agent_controllers.push_back(controller.get());
      cc = std::move(controller);
    } else {
      cc = MakeBaselineCc(scheme);
    }
    agent_flows.push_back(net.AddFlow(std::move(cc), std::move(options)));
  }
  for (size_t i = 0; i < episode.competitors.size(); ++i) {
    competitor_flows.push_back(net.AddFlow(MakeBaselineCc(scenario.competitor_schemes[i]),
                                           episode.competitors[i]));
  }
  const int flow = agent_flows.front();

  // Segmented run: advance to each scheduled switch, apply the new preference to the
  // live controllers (SetObservationPrefix — the online adjustment, no restart),
  // then continue. Phase boundaries are kept for the phase report below.
  std::vector<double> phase_boundaries;
  for (const PreferenceSwitch& sw : switches) {
    if (sw.time_s <= 0.0 || sw.time_s >= duration) {
      std::fprintf(stderr,
                   "warning: switch @ %.1fs -> %s is outside (0, %.1fs) and will "
                   "not fire\n",
                   sw.time_s, sw.to.ToString().c_str(), duration);
      continue;
    }
    net.Run(sw.time_s);
    for (int i = 0; i < num_agents; ++i) {
      if (sw.agent >= 0 && sw.agent != i) {
        continue;
      }
      const WeightVector to = sw.to.Sanitized();
      agent_controllers[static_cast<size_t>(i)]->SetObservationPrefix(
          {to.thr, to.lat, to.loss});
      agent_weights[static_cast<size_t>(i)] = to;
    }
    std::fprintf(stderr, "switch @ %.1fs: %s -> %s\n", sw.time_s,
                 sw.agent < 0 ? "all agent flows" : "agent flow",
                 sw.to.ToString().c_str());
    if (phase_boundaries.empty() || phase_boundaries.back() != sw.time_s) {
      phase_boundaries.push_back(sw.time_s);
    }
  }
  net.Run(duration);

  const FlowRecord& rec = net.record(flow);
  std::printf("time_s,throughput_mbps,avg_rtt_ms,loss_rate\n");
  const auto bins = rec.BinnedThroughputMbps(0.0, duration, 1.0);
  // Per-second RTT/loss from the monitor-interval samples.
  for (size_t s = 0; s < bins.size(); ++s) {
    double rtt_sum = 0.0;
    double loss_sum = 0.0;
    int count = 0;
    for (const auto& mi : rec.mi_samples()) {
      if (mi.time_s >= static_cast<double>(s) && mi.time_s < static_cast<double>(s + 1)) {
        rtt_sum += mi.avg_rtt_s;
        loss_sum += mi.loss_rate;
        ++count;
      }
    }
    std::printf("%zu,%.3f,%.2f,%.4f\n", s, bins[s],
                count > 0 ? rtt_sum / count * 1e3 : 0.0,
                count > 0 ? loss_sum / count : 0.0);
  }
  std::fprintf(stderr, "totals: sent=%lld acked=%lld lost=%lld avg_rtt=%.1fms\n",
               static_cast<long long>(rec.total_sent),
               static_cast<long long>(rec.total_acked),
               static_cast<long long>(rec.total_lost), rec.AvgRttS() * 1e3);

  // Guardrail report: per-flow circuit-breaker activity (only with --guard).
  if (guard && scheme == "mocc") {
    for (size_t i = 0; i < agent_controllers.size(); ++i) {
      const GuardedPolicy* g = agent_controllers[i]->guard();
      const char* state = g->state() == GuardedPolicy::State::kClosed ? "closed"
                          : g->state() == GuardedPolicy::State::kOpen ? "open"
                                                                      : "half-open";
      std::fprintf(stderr,
                   "guard flow %d: trips=%lld fallback_intervals=%lld "
                   "recoveries=%lld state=%s\n",
                   agent_flows[i], static_cast<long long>(g->trip_count()),
                   static_cast<long long>(g->fallback_interval_count()),
                   static_cast<long long>(g->recovery_count()), state);
    }
  }

  // Phase report (only when switches fired): per-flow throughput/RTT in each phase,
  // so a preference switch's rate/RTT movement is visible within one run.
  if (!phase_boundaries.empty()) {
    std::vector<double> edges = {0.0};
    edges.insert(edges.end(), phase_boundaries.begin(), phase_boundaries.end());
    edges.push_back(duration);
    for (size_t p = 0; p + 1 < edges.size(); ++p) {
      std::fprintf(stderr, "phase [%.1fs, %.1fs):\n", edges[p], edges[p + 1]);
      for (size_t i = 0; i < agent_flows.size(); ++i) {
        const WindowStats stats =
            MeasureWindow(net.record(agent_flows[i]), edges[p], edges[p + 1]);
        std::fprintf(stderr, "  agent flow %d: %.3f Mbps, avg_rtt=%.1fms\n",
                     agent_flows[i], stats.throughput_bps / 1e6,
                     stats.avg_rtt_s * 1e3);
      }
    }
  }

  // Steady-state per-flow report (second half of the run). MOCC agent flows get the
  // Eq. (2) decomposition under their own weight vector: the capacity reference is
  // the per-flow fair share of the configured bottleneck (bandwidth over all flows
  // added — the same simplification MultiFlowCcEnv trains against), the latency
  // reference each flow's own propagation RTT.
  const double steady_from = duration / 2;
  const int total_flows =
      static_cast<int>(agent_flows.size() + competitor_flows.size());
  const double fair_share_bps =
      link.bandwidth_bps / static_cast<double>(std::max(1, total_flows));
  if (total_flows > 1 || !agent_controllers.empty()) {
    std::vector<double> agent_throughputs;
    for (size_t i = 0; i < agent_flows.size(); ++i) {
      const int f = agent_flows[i];
      const WindowStats stats = MeasureWindow(net.record(f), steady_from, duration);
      agent_throughputs.push_back(stats.throughput_bps);
      if (scheme == "mocc") {
        MonitorReport report;
        report.throughput_bps = stats.throughput_bps;
        report.avg_rtt_s = stats.avg_rtt_s;
        report.loss_rate = stats.loss_rate;
        const RewardComponents c = ComputeRewardComponents(
            report, fair_share_bps, episode.agent_base_rtt_s[i]);
        const WeightVector& w = agent_weights[i];
        std::fprintf(stderr,
                     "agent flow %d w=%s: %.3f Mbps, avg_rtt=%.1fms, loss=%.4f | "
                     "O_thr=%.3f O_lat=%.3f O_loss=%.3f reward=%.3f\n",
                     f, w.ToString().c_str(), stats.throughput_bps / 1e6,
                     stats.avg_rtt_s * 1e3, stats.loss_rate, c.o_thr, c.o_lat,
                     c.o_loss, DynamicReward(w, c));
      } else {
        std::fprintf(stderr, "agent flow %d: %.3f Mbps (steady state), avg_rtt=%.1fms\n",
                     f, stats.throughput_bps / 1e6, stats.avg_rtt_s * 1e3);
      }
    }
    for (int f : competitor_flows) {
      std::fprintf(stderr, "competitor flow %d: %.3f Mbps (steady state)\n", f,
                   net.record(f).AvgThroughputBps(steady_from, duration) / 1e6);
    }
    if (agent_throughputs.size() > 1) {
      std::fprintf(stderr, "agent Jain fairness index (steady state): %.3f\n",
                   JainFairnessIndex(agent_throughputs));
      // Fairness within objective classes: flows registered for the same trade-off
      // should share fairly with each other even when the classes deliberately
      // diverge (throughput-seekers vs latency-seekers).
      if (scheme == "mocc") {
        std::map<std::string, std::vector<double>> classes;
        for (size_t i = 0; i < agent_flows.size(); ++i) {
          classes[agent_weights[i].ToString()].push_back(agent_throughputs[i]);
        }
        if (classes.size() > 1) {
          for (const auto& [key, throughputs] : classes) {
            if (throughputs.size() > 1) {
              std::fprintf(stderr,
                           "objective class %s: %zu flows, Jain=%.3f\n", key.c_str(),
                           throughputs.size(), JainFairnessIndex(throughputs));
            } else {
              std::fprintf(stderr, "objective class %s: 1 flow\n", key.c_str());
            }
          }
        }
      }
    }
  }
  return 0;
}
