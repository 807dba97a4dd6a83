// Shared infrastructure for the per-figure benchmark harnesses: a process-wide model
// zoo (./mocc_model_zoo, so offline training happens once across the whole bench suite),
// the registry of comparison schemes, and single-flow evaluation runners.
#ifndef MOCC_BENCH_BENCH_SUPPORT_H_
#define MOCC_BENCH_BENCH_SUPPORT_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/baselines/aurora.h"
#include "src/core/model_zoo.h"
#include "src/core/offline_trainer.h"
#include "src/core/policy_spec.h"
#include "src/core/presets.h"
#include "src/netsim/packet_network.h"

namespace mocc {

// The zoo caching all trained models for the bench suite.
ModelZoo& BenchZoo();

// The shared MOCC base model (StandardOfflinePreset, ω=36). Trains on first use
// (a few minutes), then loads from the zoo.
std::shared_ptr<PreferenceActorCritic> BenchBaseModel();

// A single-objective Aurora model trained with fixed reward weights `w` (cached
// under `key`).
std::shared_ptr<MlpActorCritic> BenchAuroraModel(const std::string& key,
                                                 const WeightVector& w,
                                                 int iterations = 120, uint64_t seed = 42);

// The RL agent behind the Orca-like hybrid (throughput-leaning Aurora-architecture).
std::shared_ptr<MlpActorCritic> BenchOrcaModel();

// A named congestion-control factory for evaluation sweeps. Factories receive the
// link they will run on so RL schemes can pick a sane initial rate (the analogue of
// TCP slow start, which the multiplicative Eq. 1 update lacks).
struct SchemeSpec {
  std::string name;
  std::function<std::unique_ptr<CongestionControl>(const LinkParams&)> make;
};

// The 6 handcrafted/online-learning baselines (CUBIC, Vegas, BBR, Copa, Allegro,
// Vivace).
std::vector<SchemeSpec> HandcraftedSchemes();

// All paper baselines: handcrafted + Aurora-throughput, Aurora-latency, Orca.
std::vector<SchemeSpec> AllBaselineSchemes();

// A MOCC scheme with the given weight vector (shares the bench base model).
SchemeSpec MoccScheme(const WeightVector& w, const std::string& name = "MOCC");

// Aggregate result of one single-flow run on one bottleneck link.
struct SingleFlowResult {
  double throughput_mbps = 0.0;
  double utilization = 0.0;    // delivered / link bandwidth (steady state)
  double avg_rtt_s = 0.0;
  double latency_ratio = 0.0;  // avg RTT / base RTT (the paper's Fig 5e-h metric)
  double loss_rate = 0.0;
  double reward = 0.0;         // Eq. 2 under `reward_weights` with ground-truth link
};

struct SingleFlowRunConfig {
  LinkParams link;
  // Runs are stretched to at least min_rtts round trips so large-RTT links (the Eq. 1
  // rate update advances once per RTT) are measured at steady state, not mid-ramp.
  double duration_s = 30.0;
  double min_rtts = 150.0;
  double warmup_s = 10.0;
  uint64_t seed = 1;
  BandwidthTrace trace;
  WeightVector reward_weights = BalancedObjective();
};

// Runs one flow of `scheme` on the configured link and aggregates steady-state metrics.
SingleFlowResult RunSingleFlow(const SchemeSpec& scheme, const SingleFlowRunConfig& config);

// ---------------------------------------------------------------------------
// Machine-readable benchmark output. Each bench can emit a flat JSON object of
// numeric metrics to BENCH_<name>.json in the working directory so the perf
// trajectory is tracked across PRs.
// ---------------------------------------------------------------------------
class BenchJson {
 public:
  explicit BenchJson(std::string name);

  void Add(const std::string& key, double value);
  void AddString(const std::string& key, const std::string& value);

  // Writes BENCH_<name>.json (and logs the path to stderr). False on I/O error.
  bool Write() const;
  std::string path() const { return "BENCH_" + name_ + ".json"; }

 private:
  std::string name_;
  std::vector<std::pair<std::string, std::string>> entries_;  // key -> rendered value
};

// Calls `fn` repeatedly for at least `min_seconds` of wall time and returns the
// measured calls/second.
double MeasureOpsPerSec(const std::function<void()>& fn, double min_seconds = 0.2);

// Calls/second of two callables timed against each other for a ratio check:
// `slices` rounds, each timing a run of `a` and a run of `b` of about 1 ms
// apiece, with the side that goes first alternating from round to round;
// each side's calls and seconds are summed over all rounds. Slices are timed
// on the calling thread's CPU clock (CLOCK_THREAD_CPUTIME_ID), so a slice
// preempted by a neighbour does not charge the wait to one side.
// Both sides see the same host drift (clock frequency, cache pressure from
// neighbours), and neither always pays for going first, so the ratio of the
// two rates resolves a few percent where two windows timed one after the
// other do not. The rates are per CPU-second, not per wall-second.
struct PairedOpsPerSec {
  double a = 0.0;
  double b = 0.0;
};
PairedOpsPerSec MeasurePairedOpsPerSec(const std::function<void()>& a,
                                       const std::function<void()>& b, int slices);

}  // namespace mocc

#endif  // MOCC_BENCH_BENCH_SUPPORT_H_
