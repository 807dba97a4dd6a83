#include "bench/bench_support.h"

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "src/baselines/allegro.h"
#include "src/baselines/bbr.h"
#include "src/baselines/copa.h"
#include "src/baselines/cubic.h"
#include "src/baselines/orca.h"
#include "src/baselines/vegas.h"
#include "src/baselines/vivace.h"
#include "src/core/reward.h"

namespace mocc {

ModelZoo& BenchZoo() {
  static ModelZoo zoo("mocc_model_zoo");
  return zoo;
}

std::shared_ptr<PreferenceActorCritic> BenchBaseModel() {
  static std::shared_ptr<PreferenceActorCritic> model = [] {
    const OfflineTrainConfig config = StandardOfflinePreset(7);
    std::fprintf(stderr, "[bench] loading/training MOCC base model (omega=%d)...\n",
                 ObjectiveGridSize(config.mocc.landmark_step_divisor));
    return GetOrTrainBaseModel(&BenchZoo(), "bench_base_std", config);
  }();
  return model;
}

std::shared_ptr<MlpActorCritic> BenchAuroraModel(const std::string& key,
                                                 const WeightVector& w, int iterations,
                                                 uint64_t seed) {
  return BenchZoo().GetOrTrainAurora(key, AuroraObsDim(10), [&]() {
    std::fprintf(stderr, "[bench] training Aurora model '%s'...\n", key.c_str());
    AuroraConfig config;
    config.reward_weights = w;
    config.iterations = iterations;
    config.seed = seed;
    config.env.stochastic_loss = false;
    config.ppo.entropy_start = 0.02;
    config.ppo.entropy_end = 0.002;
    config.ppo.entropy_decay_iters = iterations;
    return TrainAurora(config);
  });
}

std::shared_ptr<MlpActorCritic> BenchOrcaModel() {
  return BenchAuroraModel("bench_orca_agent", WeightVector(0.7, 0.2, 0.1), 120, 91);
}

std::vector<SchemeSpec> HandcraftedSchemes() {
  std::vector<SchemeSpec> schemes;
  schemes.push_back({"TCP CUBIC", [](const LinkParams&) { return std::make_unique<CubicCc>(); }});
  schemes.push_back({"TCP Vegas", [](const LinkParams&) { return std::make_unique<VegasCc>(); }});
  schemes.push_back({"BBR", [](const LinkParams&) { return std::make_unique<BbrCc>(); }});
  schemes.push_back({"Copa", [](const LinkParams&) { return std::make_unique<CopaCc>(); }});
  schemes.push_back(
      {"PCC Allegro", [](const LinkParams&) { return std::make_unique<AllegroCc>(); }});
  schemes.push_back(
      {"PCC Vivace", [](const LinkParams&) { return std::make_unique<VivaceCc>(); }});
  return schemes;
}

// Initial pacing rate for deployed RL controllers: a slow-start analogue so ramp time
// does not dominate large-bandwidth links (Eq. 1 moves the rate ~2.5% per RTT).
static double RlInitialRate(const LinkParams& link) {
  return std::max(2e6, 0.25 * link.bandwidth_bps);
}

std::vector<SchemeSpec> AllBaselineSchemes() {
  std::vector<SchemeSpec> schemes = HandcraftedSchemes();
  auto aurora_thr = BenchAuroraModel("bench_aurora_thr", ThroughputObjective());
  auto aurora_lat = BenchAuroraModel("bench_aurora_lat", LatencyObjective(), 120, 43);
  auto orca_agent = BenchOrcaModel();
  schemes.push_back({"Aurora-throughput", [aurora_thr](const LinkParams& link) {
                       return MakeAuroraCc(aurora_thr, "Aurora-throughput", 10,
                                           RlInitialRate(link));
                     }});
  schemes.push_back({"Aurora-latency", [aurora_lat](const LinkParams& link) {
                       return MakeAuroraCc(aurora_lat, "Aurora-latency", 10,
                                           RlInitialRate(link));
                     }});
  schemes.push_back({"Orca", [orca_agent](const LinkParams&) {
                       return std::make_unique<OrcaCc>(orca_agent);
                     }});
  return schemes;
}

SchemeSpec MoccScheme(const WeightVector& w, const std::string& name) {
  auto model = BenchBaseModel();
  return {name, [model, w, name](const LinkParams& link) {
            return PolicySpec().WithModel(model).WithName(name).MakeController(
                w, RlInitialRate(link));
          }};
}

SingleFlowResult RunSingleFlow(const SchemeSpec& scheme, const SingleFlowRunConfig& config) {
  PacketNetwork net(config.link, config.seed);
  if (!config.trace.empty()) {
    net.SetBandwidthTrace(config.trace);
  }
  const int flow = net.AddFlow(scheme.make(config.link));
  double duration = config.duration_s;
  double warmup = config.warmup_s;
  const double min_duration = config.min_rtts * config.link.BaseRttS();
  if (duration < min_duration) {
    duration = min_duration;
    warmup = duration / 2.0;
  }
  net.Run(duration);

  const FlowRecord& rec = net.record(flow);
  SingleFlowResult result;
  const double thr_bps = rec.AvgThroughputBps(warmup, duration);
  result.throughput_mbps = thr_bps / 1e6;
  result.utilization = std::min(1.0, thr_bps / config.link.bandwidth_bps);
  result.avg_rtt_s = rec.AvgRttS();
  result.latency_ratio =
      result.avg_rtt_s > 0.0 ? result.avg_rtt_s / config.link.BaseRttS() : 1.0;
  result.loss_rate = rec.LossRate();

  MonitorReport aggregate;
  aggregate.throughput_bps = thr_bps;
  aggregate.avg_rtt_s = result.avg_rtt_s > 0.0 ? result.avg_rtt_s : config.link.BaseRttS();
  aggregate.loss_rate = result.loss_rate;
  result.reward = DynamicReward(config.reward_weights, aggregate,
                                config.link.bandwidth_bps, config.link.BaseRttS());
  return result;
}

BenchJson::BenchJson(std::string name) : name_(std::move(name)) {}

void BenchJson::Add(const std::string& key, double value) {
  std::ostringstream out;
  out.precision(12);
  out << value;
  entries_.emplace_back(key, out.str());
}

void BenchJson::AddString(const std::string& key, const std::string& value) {
  std::string escaped = "\"";
  for (char c : value) {
    if (c == '"' || c == '\\') {
      escaped.push_back('\\');
    }
    escaped.push_back(c);
  }
  escaped.push_back('"');
  entries_.emplace_back(key, escaped);
}

bool BenchJson::Write() const {
  std::ofstream out(path(), std::ios::trunc);
  if (!out) {
    return false;
  }
  out << "{\n  \"bench\": \"" << name_ << "\"";
  for (const auto& [key, value] : entries_) {
    out << ",\n  \"" << key << "\": " << value;
  }
  out << "\n}\n";
  out.flush();
  if (out.good()) {
    std::fprintf(stderr, "[bench] wrote %s\n", path().c_str());
    return true;
  }
  return false;
}

double MeasureOpsPerSec(const std::function<void()>& fn, double min_seconds) {
  using Clock = std::chrono::steady_clock;
  // Untimed warmup so one-time workspace growth is excluded from steady state.
  fn();
  int64_t calls = 0;
  int64_t batch = 1;
  const Clock::time_point start = Clock::now();
  double elapsed = 0.0;
  while (elapsed < min_seconds) {
    for (int64_t i = 0; i < batch; ++i) {
      fn();
    }
    calls += batch;
    elapsed = std::chrono::duration<double>(Clock::now() - start).count();
    // Grow the batch so the clock is read ~logarithmically often.
    batch = std::min<int64_t>(batch * 2, 1 << 16);
  }
  return elapsed > 0.0 ? static_cast<double>(calls) / elapsed : 0.0;
}

namespace {

// The length of one side's run in a MeasurePairedOpsPerSec round.
constexpr double kSliceSeconds = 1e-3;

double ThreadCpuSeconds() {
  timespec now{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) + 1e-9 * static_cast<double>(now.tv_nsec);
}

// CPU time this thread spends running `calls` calls of `fn`: a slice that is
// preempted by another process does not charge the wait to its side.
double TimeCalls(const std::function<void()>& fn, int64_t calls) {
  const double start = ThreadCpuSeconds();
  for (int64_t i = 0; i < calls; ++i) {
    fn();
  }
  return ThreadCpuSeconds() - start;
}

// How many calls of `fn` take about kSliceSeconds, from an untimed warm-up
// call and a calibration run of ten slices.
int64_t CallsPerSlice(const std::function<void()>& fn) {
  fn();
  int64_t calls = 1;
  double elapsed = TimeCalls(fn, calls);
  while (elapsed < 10.0 * kSliceSeconds) {
    calls *= 2;
    elapsed = TimeCalls(fn, calls);
  }
  return std::max<int64_t>(
      1, static_cast<int64_t>(static_cast<double>(calls) * kSliceSeconds / elapsed));
}

}  // namespace

PairedOpsPerSec MeasurePairedOpsPerSec(const std::function<void()>& a,
                                       const std::function<void()>& b, int slices) {
  const int64_t calls_a = CallsPerSlice(a);
  const int64_t calls_b = CallsPerSlice(b);
  double seconds_a = 0.0;
  double seconds_b = 0.0;
  for (int s = 0; s < slices; ++s) {
    if (s % 2 == 0) {
      seconds_a += TimeCalls(a, calls_a);
      seconds_b += TimeCalls(b, calls_b);
    } else {
      seconds_b += TimeCalls(b, calls_b);
      seconds_a += TimeCalls(a, calls_a);
    }
  }
  PairedOpsPerSec rates;
  if (seconds_a > 0.0) {
    rates.a = static_cast<double>(calls_a * slices) / seconds_a;
  }
  if (seconds_b > 0.0) {
    rates.b = static_cast<double>(calls_b * slices) / seconds_b;
  }
  return rates;
}

}  // namespace mocc
