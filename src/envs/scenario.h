// Named, reproducible training/evaluation workloads — the scenario subsystem. A
// Scenario is a named EpisodeSpec (link selection, bandwidth trace, number of
// competing agents, competitor schemes, flow arrival/departure schedule,
// per-agent objective assignment, bottleneck link models) and knows how to
// build the matching environment:
// single-flow CcEnv scenarios train exactly like the paper's §5 setup, multi-flow
// scenarios train N agents against a shared PacketNetwork bottleneck
// (MultiFlowCcEnv). The global ScenarioRegistry names the built-in catalog (static
// link, oscillating / random-walk traces, mahimahi-style cellular traces, flow
// arrival/departure, many-flow contention, MOCC-vs-CUBIC/BBR) so trainers, tools
// and benchmarks can select workloads by name; "mahimahi:<path>" resolves a
// trace file on disk into a trace-driven scenario.
#ifndef MOCC_SRC_ENVS_SCENARIO_H_
#define MOCC_SRC_ENVS_SCENARIO_H_

#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/envs/cc_env.h"
#include "src/envs/multi_flow_cc_env.h"
#include "src/netsim/link_params.h"

namespace mocc {

// A named workload: the episode spec (flows, link, topology, link models,
// objective plan — see EpisodeSpec) plus its catalog name and description.
struct Scenario : EpisodeSpec {
  std::string name;
  std::string description;
  // Route even a lone agent through the packet-level MultiFlowCcEnv (per-packet
  // wire loss, queue dynamics). Scenarios whose point is a link-layer behaviour
  // the fluid model does not simulate set this.
  bool packet_level = false;

  bool IsMultiFlow() const {
    return num_agents > 1 || !competitor_schemes.empty() || packet_level ||
           !aqm.empty() || !wifi_jitter.empty();
  }
  // True when the scenario assigns objectives itself (trainers then skip their
  // per-iteration SetObjective for its environments — the plan wins at Reset).
  bool HasObjectivePlan() const { return !objectives.Empty(); }

  // Builds the scenario's environment, inheriting the non-scenario knobs (history
  // length, action scale, reward mode, ...) from `base`. Exactly one of these is
  // valid per scenario, according to IsMultiFlow().
  std::unique_ptr<CcEnv> MakeSingleFlowEnv(const CcEnvConfig& base, uint64_t seed) const;
  std::unique_ptr<MultiFlowCcEnv> MakeMultiFlowEnv(const CcEnvConfig& base,
                                                   uint64_t seed) const;
};

// Creates a handcrafted/online-learning baseline congestion controller by name:
// cubic, newreno, vegas, bbr, copa, allegro, vivace, plus the app-limited media
// sources rtc and video (src/apps/media_source.h). Returns nullptr for unknown
// names.
std::unique_ptr<CongestionControl> MakeBaselineCc(const std::string& scheme);

// The process-wide catalog of named scenarios.
class ScenarioRegistry {
 public:
  static const ScenarioRegistry& Global();

  // Looks up a built-in scenario; nullptr when unknown.
  const Scenario* Find(const std::string& name) const;
  std::vector<std::string> Names() const;
  const std::vector<Scenario>& scenarios() const { return scenarios_; }

  // Resolves one name: built-in scenarios by name, plus the dynamic form
  // "mahimahi:<path>" (a single-flow scenario driven by the mahimahi trace file).
  // Returns nullopt and fills *error when the name is unknown or the file is
  // unreadable.
  std::optional<Scenario> Resolve(const std::string& name, std::string* error) const;

  // Resolves a comma-separated scenario list (for --scenario a,b,c).
  std::optional<std::vector<Scenario>> ResolveList(const std::string& csv,
                                                   std::string* error) const;

 private:
  ScenarioRegistry();
  std::vector<Scenario> scenarios_;
};

// Prints the catalog (one "name  description" line per scenario, plus the dynamic
// mahimahi:PATH form) — the --list-scenarios output shared by the CLI tools.
void PrintScenarioCatalog(std::FILE* out);

}  // namespace mocc

#endif  // MOCC_SRC_ENVS_SCENARIO_H_
