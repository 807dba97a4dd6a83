#include "src/envs/scenario.h"

#include <cmath>
#include <utility>

#include "src/apps/media_source.h"
#include "src/baselines/allegro.h"
#include "src/baselines/bbr.h"
#include "src/baselines/copa.h"
#include "src/baselines/cubic.h"
#include "src/baselines/newreno.h"
#include "src/baselines/vegas.h"
#include "src/baselines/vivace.h"

namespace mocc {
namespace {

// Long enough to cover any episode (400 steps x <=0.1 s plus warm-up).
constexpr double kTraceHorizonS = 120.0;

// The catalog's fixed mid-range training link (Table 3 training row midpoint).
LinkParams StaticTrainingLink() {
  LinkParams link;
  link.bandwidth_bps = 3e6;
  link.one_way_delay_s = 0.020;
  link.queue_capacity_pkts = 500;
  link.random_loss_rate = 0.0;
  return link;
}

// Synthetic cellular-style delivery schedule in mahimahi format: per-second delivery
// rate follows a jittered sinusoid around the link bandwidth, then each second emits
// that many evenly spaced MTU delivery opportunities. Exercises the same
// FromMahimahiTimestamps path as a real trace file, with no file dependency.
BandwidthTrace SyntheticCellularTrace(const LinkParams& link, Rng* rng) {
  std::vector<double> timestamps_ms;
  const double phase = rng->Uniform(0.0, 2.0 * 3.14159265358979323846);
  for (int second = 0; second < static_cast<int>(kTraceHorizonS); ++second) {
    const double swing = 0.5 * std::sin(0.35 * static_cast<double>(second) + phase);
    const double jitter = rng->Uniform(-0.1, 0.1);
    const double rate_bps = link.bandwidth_bps * std::max(0.15, 1.0 + swing + jitter);
    const int packets = std::max(
        1, static_cast<int>(rate_bps / static_cast<double>(kDefaultPacketSizeBits)));
    for (int p = 0; p < packets; ++p) {
      timestamps_ms.push_back(
          (static_cast<double>(second) + static_cast<double>(p) / packets) * 1e3);
    }
  }
  return BandwidthTrace::FromMahimahiTimestamps(timestamps_ms, /*window_s=*/1.0);
}

std::vector<Scenario> BuildCatalog() {
  std::vector<Scenario> catalog;

  {
    Scenario s;
    s.name = "static";
    s.description = "single flow, fixed mid-range training link, constant bandwidth";
    s.fixed_link = StaticTrainingLink();
    catalog.push_back(std::move(s));
  }
  {
    Scenario s;
    s.name = "sampled-link";
    s.description = "single flow, per-episode link sampled from the Table-3 training row";
    catalog.push_back(std::move(s));
  }
  {
    Scenario s;
    s.name = "oscillating";
    s.description =
        "single flow, bandwidth oscillating between 0.5x and 1.5x the sampled link "
        "every 5 s (Fig 1a-style varying link)";
    s.trace_generator = [](const LinkParams& link, Rng*) {
      return BandwidthTrace::Oscillating(0.5 * link.bandwidth_bps,
                                         1.5 * link.bandwidth_bps, 5.0, kTraceHorizonS);
    };
    catalog.push_back(std::move(s));
  }
  {
    Scenario s;
    s.name = "random-walk";
    s.description =
        "single flow, bandwidth resampled uniformly in [0.5x, 1.5x] of the sampled "
        "link every 2 s — a fresh walk every episode";
    s.trace_generator = [](const LinkParams& link, Rng* rng) {
      return BandwidthTrace::RandomWalk(0.5 * link.bandwidth_bps,
                                        1.5 * link.bandwidth_bps, 2.0, kTraceHorizonS,
                                        rng);
    };
    catalog.push_back(std::move(s));
  }
  {
    Scenario s;
    s.name = "cellular";
    s.description =
        "single flow on a synthetic mahimahi-style cellular schedule (sinusoid-"
        "modulated per-second delivery opportunities)";
    s.trace_generator = SyntheticCellularTrace;
    // Expanding the schedule to per-packet delivery opportunities costs as much as a
    // whole episode; one schedule per env (fresh per seed) keeps the env-step rate at
    // the other single-flow scenarios' level — bench_scenarios asserts the ratio.
    s.cache_trace_per_env = true;
    catalog.push_back(std::move(s));
  }
  {
    Scenario s;
    s.name = "flow-arrival";
    s.description =
        "3 agents arriving 4 s apart plus a CUBIC flow joining at 8 s and departing "
        "at 20 s — arrival/departure dynamics on one bottleneck";
    s.num_agents = 3;
    s.agent_stagger_s = 4.0;
    s.competitor_schemes = {"cubic"};
    s.competitor_start_s = 8.0;
    s.competitor_stop_s = 20.0;
    catalog.push_back(std::move(s));
  }
  {
    Scenario s;
    s.name = "many-flow";
    s.description = "8 agents contending for one sampled bottleneck, fair-share reward";
    s.num_agents = 8;
    catalog.push_back(std::move(s));
  }
  {
    Scenario s;
    s.name = "vs-cubic";
    s.description = "2 agents sharing the bottleneck with 2 CUBIC flows (friendliness)";
    s.num_agents = 2;
    s.competitor_schemes = {"cubic", "cubic"};
    catalog.push_back(std::move(s));
  }
  {
    Scenario s;
    s.name = "vs-bbr";
    s.description = "2 agents sharing the bottleneck with 2 BBR flows (friendliness)";
    s.num_agents = 2;
    s.competitor_schemes = {"bbr", "bbr"};
    catalog.push_back(std::move(s));
  }
  {
    Scenario s;
    s.name = "hetero-rtt";
    s.description =
        "4 agents on one bottleneck with per-flow extra one-way delay 0/10/25/50 ms "
        "— RTT-unfairness contention (fair-share reward vs each flow's own base RTT)";
    s.num_agents = 4;
    s.agent_extra_delay_s = {0.0, 0.010, 0.025, 0.050};
    catalog.push_back(std::move(s));
  }
  {
    Scenario s;
    s.name = "parking-lot";
    s.description =
        "3 agents crossing a 3-hop parking lot end to end, with one CUBIC cross "
        "flow loading each hop — multi-bottleneck contention";
    s.num_agents = 3;
    s.topology.kind = TopologyKind::kParkingLot;
    s.topology.hops = 3;
    s.competitor_schemes = {"cubic", "cubic", "cubic"};
    catalog.push_back(std::move(s));
  }
  {
    Scenario s;
    s.name = "reverse-path";
    s.description =
        "2 agents whose ACKs share a reverse link that 2 CUBIC flows drive in "
        "their data direction — ACK queueing behind reverse-path congestion";
    s.num_agents = 2;
    s.topology.kind = TopologyKind::kReversePath;
    s.competitor_schemes = {"cubic", "cubic"};
    catalog.push_back(std::move(s));
  }
  {
    Scenario s;
    s.name = "n-leaf-dumbbell";
    s.description =
        "10 agents entering through 5 fast leaf-in links (4x bandwidth, 1/4 "
        "delay), crossing one shared bottleneck, exiting through matching "
        "leaf-out links — the ns-3 N-leaf dumbbell at fleet flow counts";
    s.num_agents = 10;
    s.topology.kind = TopologyKind::kNLeafDumbbell;
    s.topology.leaf_pairs = 5;
    catalog.push_back(std::move(s));
  }
  {
    Scenario s;
    s.name = "asym-parking-lot";
    s.description =
        "3 agents crossing a 3-hop parking lot whose middle hop has half the "
        "bandwidth, 1.5x the delay and half the queue — one true bottleneck "
        "among equals, with a CUBIC cross flow per hop";
    s.num_agents = 3;
    s.topology.kind = TopologyKind::kParkingLot;
    s.topology.hops = 3;
    s.topology.link_scales = {{1.0, 1.0, 1.0}, {0.5, 1.5, 0.5}, {1.0, 1.0, 1.0}};
    s.competitor_schemes = {"cubic", "cubic", "cubic"};
    catalog.push_back(std::move(s));
  }
  // --- Heterogeneous-objective scenarios: different agents on ONE bottleneck want
  // different throughput/latency/loss trade-offs, and preferences can change
  // mid-episode — the multi-objective training counterpart of the paper's online
  // adjustment story (§4.3) and DeepCC's application-driven case.
  {
    Scenario s;
    s.name = "mixed-objective";
    s.description =
        "4 agents on one sampled bottleneck, alternating throughput-seekers "
        "<0.8,0.1,0.1> and latency-seekers <0.1,0.8,0.1> — heterogeneous objectives "
        "in contention";
    s.num_agents = 4;
    s.objectives.fixed = {ThroughputObjective(), LatencyObjective()};
    catalog.push_back(std::move(s));
  }
  {
    Scenario s;
    s.name = "sampled-objective";
    s.description =
        "3 agents whose weight vectors are resampled per episode, uniformly over "
        "the floored simplex — preference-conditioning coverage under contention";
    s.num_agents = 3;
    s.objectives.sample_per_episode = true;
    catalog.push_back(std::move(s));
  }
  {
    Scenario s;
    s.name = "preference-switch";
    s.description =
        "2 agents starting throughput-weighted; at t=8 s every agent switches to "
        "the latency objective mid-episode — online preference adjustment";
    s.num_agents = 2;
    s.objectives.fixed = {ThroughputObjective()};
    s.objectives.switches = {{/*time_s=*/8.0, /*agent=*/-1, LatencyObjective()}};
    catalog.push_back(std::move(s));
  }
  {
    Scenario s;
    s.name = "mixed-objective-rtt";
    s.description =
        "hetero-rtt ladder (0/10/25/50 ms) where the short-RTT flows seek "
        "throughput and the long-RTT flows seek latency — objective and RTT "
        "heterogeneity combined";
    s.num_agents = 4;
    s.agent_extra_delay_s = {0.0, 0.010, 0.025, 0.050};
    s.objectives.fixed = {ThroughputObjective(), ThroughputObjective(),
                          LatencyObjective(), LatencyObjective()};
    catalog.push_back(std::move(s));
  }
  {
    Scenario s;
    s.name = "mixed-objective-parking-lot";
    s.description =
        "3 agents crossing the 3-hop parking lot with throughput/latency/balanced "
        "objectives and one CUBIC cross flow per hop — heterogeneous objectives on "
        "a multi-bottleneck path";
    s.num_agents = 3;
    s.topology.kind = TopologyKind::kParkingLot;
    s.topology.hops = 3;
    s.competitor_schemes = {"cubic", "cubic", "cubic"};
    s.objectives.fixed = {ThroughputObjective(), LatencyObjective(),
                          BalancedObjective()};
    catalog.push_back(std::move(s));
  }
  // --- Fault-injection scenarios: the bottleneck misbehaves on a deterministic
  // schedule (blackouts, loss bursts), exercising the deployment guardrails and
  // the policies' out-of-distribution behaviour (DeepCC's graceful-degradation
  // requirement). Fault windows are pure functions of simulation time; the only
  // randomness is the optional per-episode phase, drawn from the env's Rng.
  {
    Scenario s;
    s.name = "blackout";
    s.description =
        "2 agents on a bottleneck that goes fully dark for 1.5 s out of every "
        "10 s — link-outage recovery under contention";
    s.num_agents = 2;
    s.fault.blackout_period_s = 10.0;
    s.fault.blackout_duration_s = 1.5;
    catalog.push_back(std::move(s));
  }
  {
    Scenario s;
    s.name = "flaky-link";
    s.description =
        "2 agents on a flapping bottleneck: a 200 ms outage every 2 s with a "
        "per-episode random phase, plus 50 ms delay spikes — rapid link flaps";
    s.num_agents = 2;
    s.fault.blackout_period_s = 2.0;
    s.fault.blackout_duration_s = 0.2;
    s.fault.delay_spike_period_s = 2.0;
    s.fault.delay_spike_duration_s = 0.4;
    s.fault.delay_spike_extra_s = 0.050;
    s.fault.randomize_phase = true;
    catalog.push_back(std::move(s));
  }
  {
    Scenario s;
    s.name = "loss-burst";
    s.description =
        "2 agents on a bottleneck whose wire loss jumps to 20% for 1 s out of "
        "every 8 s — non-congestion loss bursts";
    s.num_agents = 2;
    s.fault.loss_burst_period_s = 8.0;
    s.fault.loss_burst_duration_s = 1.0;
    s.fault.loss_burst_rate = 0.20;
    catalog.push_back(std::move(s));
  }
  // --- Real-world link corpus: iid wire loss, AQM/ECN bottlenecks, wifi-style
  // service jitter, and app-limited media cross traffic. All are packet-level
  // (the fluid model has no queue to manage, no wire loss to survive and no
  // packets to mark), so even the single-agent entries run on MultiFlowCcEnv.
  {
    Scenario s;
    s.name = "lossy-link";
    s.description =
        "single agent on a 12 Mbps / 40 ms RTT link with 1% iid wire loss — "
        "loss-based schemes collapse here (the paper's wifi story)";
    s.packet_level = true;
    LinkParams link;
    link.bandwidth_bps = 12e6;
    link.one_way_delay_s = 0.020;
    link.queue_capacity_pkts = 500;
    link.random_loss_rate = 0.01;
    s.fixed_link = link;
    catalog.push_back(std::move(s));
  }
  {
    Scenario s;
    s.name = "red-ecn";
    s.description =
        "single agent behind a RED bottleneck that ECN-marks instead of dropping "
        "— early congestion signals on the observation's ECN channel";
    s.fixed_link = StaticTrainingLink();
    s.aqm.kind = AqmKind::kRed;
    s.aqm.ecn = true;
    // Thresholds sized to this link's ~10-packet BDP (the classic 50/150
    // defaults would never fire at 3 Mbps): the band starts right at a
    // well-behaved policy's standing queue, so marks are a genuinely early
    // signal, and the fast EWMA keeps the marking responsive at ~250 pkt/s.
    s.aqm.red_min_pkts = 5.0;
    s.aqm.red_max_pkts = 40.0;
    s.aqm.red_weight = 0.01;
    catalog.push_back(std::move(s));
  }
  {
    Scenario s;
    s.name = "codel";
    s.description =
        "single agent behind a CoDel bottleneck (5 ms target, 100 ms interval) "
        "— sojourn-time dropping punishes standing queues";
    s.fixed_link = StaticTrainingLink();
    s.aqm.kind = AqmKind::kCodel;
    catalog.push_back(std::move(s));
  }
  {
    Scenario s;
    s.name = "wifi-jitter";
    s.description =
        "single agent on a link whose service time burst-degrades 3x for 100 ms "
        "out of every 500 ms (random phase) — wifi-style jittery capacity";
    s.fixed_link = StaticTrainingLink();
    s.wifi_jitter.burst_period_s = 0.5;
    s.wifi_jitter.burst_duration_s = 0.1;
    s.wifi_jitter.service_slowdown = 3.0;
    s.wifi_jitter.randomize_phase = true;
    catalog.push_back(std::move(s));
  }
  {
    Scenario s;
    s.name = "wifi-jitter-compete";
    s.description =
        "2 agents and a CUBIC flow contending on the wifi-jitter link — jittery "
        "capacity under contention";
    s.num_agents = 2;
    s.competitor_schemes = {"cubic"};
    s.wifi_jitter.burst_period_s = 0.5;
    s.wifi_jitter.burst_duration_s = 0.1;
    s.wifi_jitter.service_slowdown = 3.0;
    s.wifi_jitter.randomize_phase = true;
    catalog.push_back(std::move(s));
  }
  {
    Scenario s;
    s.name = "rtc-compete";
    s.description =
        "2 agents sharing the bottleneck with an app-limited RTC source (delay-"
        "adaptive encoder capped at 2.5 Mbps) — live-media cross traffic";
    s.num_agents = 2;
    s.competitor_schemes = {"rtc"};
    catalog.push_back(std::move(s));
  }
  {
    Scenario s;
    s.name = "video-compete";
    s.description =
        "2 agents sharing the bottleneck with an on/off ABR video client that "
        "bursts chunks and idles on a full buffer — bursty cross traffic";
    s.num_agents = 2;
    s.competitor_schemes = {"video"};
    catalog.push_back(std::move(s));
  }
  {
    Scenario s;
    s.name = "lossy-vs-cubic";
    s.description =
        "2 agents and 1 CUBIC flow on the 1% iid wire-loss link — friendliness "
        "where the competitor is loss-collapsed";
    s.num_agents = 2;
    s.competitor_schemes = {"cubic"};
    LinkParams link;
    link.bandwidth_bps = 12e6;
    link.one_way_delay_s = 0.020;
    link.queue_capacity_pkts = 500;
    link.random_loss_rate = 0.01;
    s.fixed_link = link;
    catalog.push_back(std::move(s));
  }
  return catalog;
}

}  // namespace

std::unique_ptr<CongestionControl> MakeBaselineCc(const std::string& scheme) {
  if (scheme == "cubic") {
    return std::make_unique<CubicCc>();
  }
  if (scheme == "newreno") {
    return std::make_unique<NewRenoCc>();
  }
  if (scheme == "vegas") {
    return std::make_unique<VegasCc>();
  }
  if (scheme == "bbr") {
    return std::make_unique<BbrCc>();
  }
  if (scheme == "copa") {
    return std::make_unique<CopaCc>();
  }
  if (scheme == "allegro") {
    return std::make_unique<AllegroCc>();
  }
  if (scheme == "vivace") {
    return std::make_unique<VivaceCc>();
  }
  if (scheme == "rtc") {
    return std::make_unique<RtcSourceCc>();
  }
  if (scheme == "video") {
    return std::make_unique<VideoSourceCc>();
  }
  return nullptr;
}

std::unique_ptr<CcEnv> Scenario::MakeSingleFlowEnv(const CcEnvConfig& base,
                                                   uint64_t seed) const {
  CcEnvConfig config = base;
  if (link_range.has_value()) {
    config.link_range = *link_range;
  }
  auto env = std::make_unique<CcEnv>(config, seed);
  if (fixed_link.has_value()) {
    env->SetFixedLink(*fixed_link);
  }
  if (trace_generator) {
    env->SetTraceGenerator(trace_generator, cache_trace_per_env);
  }
  return env;
}

std::unique_ptr<MultiFlowCcEnv> Scenario::MakeMultiFlowEnv(const CcEnvConfig& base,
                                                           uint64_t seed) const {
  MultiFlowCcEnvConfig config;
  static_cast<EpisodeSpec&>(config) = *this;
  if (!config.link_range.has_value()) {
    config.link_range = base.link_range;
  }
  config.include_ecn_in_obs = base.include_ecn_in_obs;
  config.history_len = base.history_len;
  config.action_scale = base.action_scale;
  config.step_rtt_multiple = base.mi_rtt_multiple;
  config.step_min_duration_s = base.mi_min_duration_s;
  config.max_steps_per_episode = base.max_steps_per_episode;
  config.min_rate_bps = base.min_rate_bps;
  config.min_rate_fraction_of_share = base.min_rate_fraction_of_bw;
  config.max_rate_multiple = base.max_rate_multiple;
  return std::make_unique<MultiFlowCcEnv>(config, seed);
}

ScenarioRegistry::ScenarioRegistry() : scenarios_(BuildCatalog()) {}

const ScenarioRegistry& ScenarioRegistry::Global() {
  static const ScenarioRegistry* registry = new ScenarioRegistry();
  return *registry;
}

const Scenario* ScenarioRegistry::Find(const std::string& name) const {
  for (const Scenario& scenario : scenarios_) {
    if (scenario.name == name) {
      return &scenario;
    }
  }
  return nullptr;
}

std::vector<std::string> ScenarioRegistry::Names() const {
  std::vector<std::string> names;
  names.reserve(scenarios_.size());
  for (const Scenario& scenario : scenarios_) {
    names.push_back(scenario.name);
  }
  return names;
}

std::optional<Scenario> ScenarioRegistry::Resolve(const std::string& name,
                                                  std::string* error) const {
  if (const Scenario* found = Find(name)) {
    return *found;
  }
  constexpr const char kMahimahiPrefix[] = "mahimahi:";
  if (name.rfind(kMahimahiPrefix, 0) == 0) {
    const std::string path = name.substr(sizeof(kMahimahiPrefix) - 1);
    BandwidthTrace trace = BandwidthTrace::FromMahimahiFile(path);
    if (trace.empty()) {
      if (error != nullptr) {
        *error = "cannot read mahimahi trace '" + path + "'";
      }
      return std::nullopt;
    }
    Scenario s;
    s.name = name;
    s.description = "single flow driven by the mahimahi trace " + path;
    s.fixed_link = StaticTrainingLink();
    // Shared ownership keeps Scenario copies cheap and the per-episode cost at one
    // trace copy (the install into the link), independent of trace length.
    auto shared = std::make_shared<const BandwidthTrace>(std::move(trace));
    s.trace_generator = [shared](const LinkParams&, Rng*) { return *shared; };
    return s;
  }
  if (error != nullptr) {
    *error = "unknown scenario '" + name + "'";
  }
  return std::nullopt;
}

std::optional<std::vector<Scenario>> ScenarioRegistry::ResolveList(
    const std::string& csv, std::string* error) const {
  std::vector<Scenario> scenarios;
  size_t begin = 0;
  while (begin <= csv.size()) {
    size_t end = csv.find(',', begin);
    if (end == std::string::npos) {
      end = csv.size();
    }
    const std::string name = csv.substr(begin, end - begin);
    if (!name.empty()) {
      std::optional<Scenario> scenario = Resolve(name, error);
      if (!scenario.has_value()) {
        return std::nullopt;
      }
      scenarios.push_back(std::move(*scenario));
    }
    begin = end + 1;
  }
  if (scenarios.empty()) {
    if (error != nullptr) {
      *error = "empty scenario list";
    }
    return std::nullopt;
  }
  return scenarios;
}

void PrintScenarioCatalog(std::FILE* out) {
  for (const Scenario& s : ScenarioRegistry::Global().scenarios()) {
    std::fprintf(out, "%-28s %s\n", s.name.c_str(), s.description.c_str());
  }
  std::fprintf(out, "%-28s %s\n", "mahimahi:PATH",
               "single flow driven by the mahimahi trace file at PATH");
}

}  // namespace mocc
