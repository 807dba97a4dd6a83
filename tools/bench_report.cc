// Quick machine-readable performance report for the two hot loops behind the
// paper's Figure 17 (per-MI policy-inference overhead) and Figure 19 (rollout
// collection throughput for offline training). Runs in seconds — no model zoo,
// no long training — and writes BENCH_report.json so the perf trajectory is
// tracked across PRs. Human-readable numbers go to stdout.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <vector>

#include "bench/bench_support.h"
#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/core/mocc_config.h"
#include "src/core/policy_spec.h"
#include "src/core/preference_model.h"
#include "src/envs/cc_env.h"
#include "src/nn/mlp.h"
#include "src/nn/simd/dispatch.h"
#include "src/rl/actor_critic.h"
#include "src/rl/inference_policy.h"
#include "src/rl/ppo.h"

// ASan detection across compilers: gcc defines __SANITIZE_ADDRESS__, clang
// reports it through __has_feature.
#if defined(__has_feature)
#define MOCC_ASAN_FEATURE __has_feature(address_sanitizer)
#else
#define MOCC_ASAN_FEATURE 0
#endif

using namespace mocc;

namespace {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Wall seconds to collect `total_steps` transitions split across `n_envs`
// environments (the offline trainer's per-iteration collection pattern).
double TimeRolloutCollection(int n_envs, int total_steps, bool parallel) {
  MoccConfig config;
  Rng rng(17);
  PreferenceActorCritic model(config, &rng);
  PpoConfig ppo_config = config.MakePpoConfig(/*seed=*/5);
  PpoTrainer trainer(&model, ppo_config);
  trainer.set_parallel_collection(parallel);
  std::vector<std::unique_ptr<CcEnv>> envs;
  std::vector<PpoTrainer::RolloutSource> sources;
  for (int i = 0; i < n_envs; ++i) {
    envs.push_back(std::make_unique<CcEnv>(config.MakeEnvConfig(), 1000 + 13 * i));
    PpoTrainer::RolloutSource source;
    source.env = envs.back().get();
    sources.push_back(source);
  }
  const int steps_each = total_steps / n_envs;
  const double t0 = NowSeconds();
  trainer.CollectSourcesParallel(sources, steps_each);
  return NowSeconds() - t0;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// Single-observation throughput of the shipped inference paths of the Figure-3
// model, plus its float32 actor trunk row walked through two kernel tables of
// this binary: the dispatched one and the scalar reference. The two pairs a
// gate compares (int8 vs float32 row, dispatched vs scalar trunk) are each
// timed against each other in alternating slices (MeasurePairedOpsPerSec).
struct InferencePathRates {
  double batched_ops_per_sec = 0.0;       // ForwardInto, batch = 1
  double fast_row_ops_per_sec = 0.0;      // double ForwardRow
  double fast_row_f32_ops_per_sec = 0.0;  // float32 replica (--precision float32)
  double int8_row_ops_per_sec = 0.0;      // int8 replica (--precision int8)
  double trunk_dispatched_ops_per_sec = 0.0;
  double trunk_scalar_ops_per_sec = 0.0;
};

// Keeps the trunk walks' results observable.
volatile float trunk_sink = 0.0f;

// One row through `trunk` with the mat-vec and tanh kernels of `kernels`: the
// per-layer sequence MlpT<float>::ForwardRow runs on the dispatched table.
std::function<void()> TrunkRowWalk(const simd::Kernels& kernels,
                                   const MlpT<float>& trunk,
                                   const std::vector<float>& x) {
  size_t width = 0;
  for (size_t li = 0; li < trunk.layer_count(); ++li) {
    width = std::max(width, trunk.layer(li).out_dim());
  }
  auto ping = std::make_shared<std::vector<float>>(width);
  auto pong = std::make_shared<std::vector<float>>(width);
  return [&kernels, &trunk, &x, ping, pong] {
    const float* cur = x.data();
    float* dst = ping->data();
    float* spare = pong->data();
    for (size_t li = 0; li < trunk.layer_count(); ++li) {
      const DenseLayerT<float>& l = trunk.layer(li);
      kernels.row_matvec_bias_f32(cur, l.weights().data(), l.bias().data(), dst,
                                  l.in_dim(), l.out_dim());
      if (l.activation() == Activation::kTanh) {
        kernels.tanh_array_f32(dst, l.out_dim());
      }
      cur = dst;
      std::swap(dst, spare);
    }
    trunk_sink = cur[0];
  };
}

// Inference cost does not depend on the weight values, so untrained models
// measure the same thing as trained ones. `slices` sets the paired
// measurements' length.
InferencePathRates MeasureInferencePaths(const MoccConfig& config, int slices) {
  Rng rng(1);
  PreferenceActorCritic model(config, &rng);
  std::vector<double> obs(config.ObsDim());
  Rng obs_rng(99);
  for (auto& v : obs) {
    v = obs_rng.Uniform(-1.0, 1.0);
  }

  InferencePathRates rates;
  volatile double sink = 0.0;
  Matrix x(1, obs.size());
  Matrix mean;
  Matrix value;
  rates.batched_ops_per_sec = MeasureOpsPerSec([&] {
    x.SetRow(0, obs);
    model.Forward(x, &mean, &value);
    sink = mean(0, 0) + value(0, 0);
  });
  double m = 0.0;
  double v = 0.0;
  rates.fast_row_ops_per_sec = MeasureOpsPerSec([&] {
    model.ForwardRow(obs, &m, &v);
    sink = m + v;
  });
  std::unique_ptr<InferencePolicy> f32 = model.MakeFloat32Policy();
  std::unique_ptr<InferencePolicy> int8 = model.MakeInt8Policy();
  double m8 = 0.0;
  double v8 = 0.0;
  const PairedOpsPerSec rows = MeasurePairedOpsPerSec(
      [&] {
        f32->ForwardRow(obs, &m, &v);
        sink = m + v;
      },
      [&] {
        int8->ForwardRow(obs, &m8, &v8);
        sink = m8 + v8;
      },
      slices);
  rates.fast_row_f32_ops_per_sec = rows.a;
  rates.int8_row_ops_per_sec = rows.b;
  (void)sink;

  // The model's own trunk is private; this one has its shape (the actor trunk
  // of PreferenceActorCritic: [PN features | history] -> hidden tanh -> 1).
  std::vector<size_t> trunk_dims = {config.pn_out + config.HistoryDim()};
  trunk_dims.insert(trunk_dims.end(), config.trunk_hidden.begin(),
                    config.trunk_hidden.end());
  trunk_dims.push_back(1);
  const MlpT<float> trunk(trunk_dims, Activation::kTanh, Activation::kIdentity, &rng);
  std::vector<float> trunk_in(trunk_dims.front());
  for (float& f : trunk_in) {
    f = static_cast<float>(obs_rng.Uniform(-1.0, 1.0));
  }
  const PairedOpsPerSec trunk_rates = MeasurePairedOpsPerSec(
      TrunkRowWalk(simd::Active(), trunk, trunk_in),
      TrunkRowWalk(*simd::KernelsForTier(simd::Tier::kScalar), trunk, trunk_in),
      slices);
  rates.trunk_dispatched_ops_per_sec = trunk_rates.a;
  rates.trunk_scalar_ops_per_sec = trunk_rates.b;
  return rates;
}

}  // namespace

int main() {
  MoccConfig config;

  BenchJson json("report");
  json.Add("hardware_concurrency",
           static_cast<double>(ThreadPool::Shared().size()));

  // Which kernel tier CPUID picked for this run — the rates below are only
  // comparable across hosts with the tier attached.
  json.AddString("simd_tier", simd::TierName(simd::ActiveTier()));
  std::printf("simd tier: %s%s\n", simd::TierName(simd::ActiveTier()),
              simd::ForcedScalar() ? " (forced)" : "");

  // --- Single-observation inference throughput (Figure 17's budget). ---
  // Both speedup gates are ratios of two paths timed against each other in
  // alternating ~1 ms slices (MeasurePairedOpsPerSec), so host drift hits both
  // sides alike. A failing verdict is still remeasured (repo-wide remeasure
  // rule), with twice the slices, and the remeasurement replaces it.
  constexpr double kTrunkVsScalarGate = 4.0;  // dispatched f32 trunk row vs scalar table
  constexpr double kInt8VsF32Gate = 1.5;      // quantized row vs f32 row
  constexpr int kSlices = 200;
  const bool scalar_tier = simd::ActiveTier() == simd::Tier::kScalar;
  // On the scalar and SSSE3 tiers the dispatched f32 row kernel is the scalar
  // one, so there is nothing to compare.
  const bool trunk_gated = simd::Active().row_matvec_bias_f32 !=
                           simd::KernelsForTier(simd::Tier::kScalar)->row_matvec_bias_f32;
  InferencePathRates rates = MeasureInferencePaths(config, kSlices);
  const auto trunk_ok = [&] {
    return !trunk_gated || rates.trunk_dispatched_ops_per_sec >=
                               kTrunkVsScalarGate * rates.trunk_scalar_ops_per_sec;
  };
  const auto int8_ok = [&] {
    return scalar_tier ||
           rates.int8_row_ops_per_sec >= kInt8VsF32Gate * rates.fast_row_f32_ops_per_sec;
  };
  for (int retry = 0; retry < 2 && !(trunk_ok() && int8_ok()); ++retry) {
    std::fprintf(stderr, "[bench] simd speedup gate remeasuring (attempt %d)\n",
                 retry + 1);
    rates = MeasureInferencePaths(config, 2 * kSlices);
  }
  const double batched_ops = rates.batched_ops_per_sec;
  const double row_ops = rates.fast_row_ops_per_sec;
  const double f32_ops = rates.fast_row_f32_ops_per_sec;
  const double int8_ops = rates.int8_row_ops_per_sec;
  const double trunk_ops = rates.trunk_dispatched_ops_per_sec;
  const double trunk_scalar_ops = rates.trunk_scalar_ops_per_sec;

  json.Add("inference_batched_ops_per_sec", batched_ops);
  json.Add("inference_fast_row_ops_per_sec", row_ops);
  json.Add("inference_fast_row_f32_ops_per_sec", f32_ops);
  json.Add("inference_int8_row_ops_per_sec", int8_ops);
  json.Add("fast_row_speedup_vs_batched", Ratio(row_ops, batched_ops));
  json.Add("f32_row_speedup_vs_double_row", Ratio(f32_ops, row_ops));
  json.Add("int8_row_speedup_vs_f32", Ratio(int8_ops, f32_ops));
  json.Add("f32_trunk_row_dispatched_ops_per_sec", trunk_ops);
  json.Add("f32_trunk_row_scalar_ops_per_sec", trunk_scalar_ops);
  json.Add("f32_trunk_row_speedup_vs_scalar", Ratio(trunk_ops, trunk_scalar_ops));
  std::printf("single-obs inference ops/sec:\n");
  std::printf("  batched (alloc-free)   %12.0f\n", batched_ops);
  std::printf("  fused single-row       %12.0f  (%.1fx vs batched)\n", row_ops,
              Ratio(row_ops, batched_ops));
  std::printf("  fused single-row f32   %12.0f  (%.2fx vs double row)\n", f32_ops,
              Ratio(f32_ops, row_ops));
  std::printf("  int8 single-row        %12.0f  (%.2fx vs f32 row)\n", int8_ops,
              Ratio(int8_ops, f32_ops));
  std::printf("f32 actor trunk row ops/sec:\n");
  std::printf("  dispatched table       %12.0f\n", trunk_ops);
  std::printf("  scalar table           %12.0f  (dispatched %.2fx)\n", trunk_scalar_ops,
              Ratio(trunk_ops, trunk_scalar_ops));
  if (!trunk_gated) {
    std::printf("  comparison skipped: the active f32 row kernel is the scalar one\n");
  } else if (!trunk_ok()) {
    std::fprintf(stderr,
                 "WARN: dispatched f32 trunk row is only %.2fx the scalar table "
                 "(gate %.1fx)\n",
                 Ratio(trunk_ops, trunk_scalar_ops), kTrunkVsScalarGate);
  }
  if (!int8_ok()) {
    std::fprintf(stderr, "WARN: int8 row is only %.2fx the f32 row (gate %.1fx)\n",
                 Ratio(int8_ops, f32_ops), kInt8VsF32Gate);
  }

  // --- Rollout collection scaling (Figure 19's mechanism). ---
  const int total_steps = 4096;
  const double serial_1env_s = TimeRolloutCollection(1, total_steps, /*parallel=*/false);
  const double serial_4env_s = TimeRolloutCollection(4, total_steps, /*parallel=*/false);
  const double pool_4env_s = TimeRolloutCollection(4, total_steps, /*parallel=*/true);
  json.Add("rollout_steps_total", total_steps);
  json.Add("rollout_1env_serial_wall_s", serial_1env_s);
  json.Add("rollout_4env_serial_wall_s", serial_4env_s);
  json.Add("rollout_4env_pool_wall_s", pool_4env_s);
  json.Add("rollout_4env_pool_speedup_vs_serial",
           Ratio(serial_4env_s, pool_4env_s));
  std::printf("rollout collection, %d total steps:\n", total_steps);
  std::printf("  1 env, serial          %8.3f s\n", serial_1env_s);
  std::printf("  4 envs, serial         %8.3f s\n", serial_4env_s);
  std::printf("  4 envs, thread pool    %8.3f s  (%.2fx vs 4-env serial; %d-wide pool)\n",
              pool_4env_s, Ratio(serial_4env_s, pool_4env_s),
              ThreadPool::Shared().size());

  // --- Deployment guardrail overhead. ---
  // Per-MI decision throughput of the deployment controller (float32 replica
  // inference, the fast path), with and without the GuardedPolicy circuit
  // breaker wrapped around every decision. The guard adds a handful of finite/
  // bounds comparisons plus the warm-standby CUBIC's (per-MI no-op) forwarding,
  // so the overhead must stay a rounding error next to the NN forward.
  //
  // Measurement: three fresh unguarded/guarded controller pairs, each pair
  // timed against itself in 200 alternating ~1 ms slices
  // (MeasurePairedOpsPerSec), the overhead read from the summed rates of the
  // median pair. Timing all unguarded decisions first and all guarded
  // ones after lets a clock or load shift between the two blocks masquerade as
  // guard overhead on a shared vCPU; short alternating slices see the same
  // regime, and summing 200 of them leaves no single slice a veto. A failing
  // first verdict is remeasured once with twice the slices (repo-wide
  // remeasure rule), and the remeasurement is the verdict.
  //
  // The reported overhead is SIGNED: a guarded side that measures faster
  // than the unguarded one (pure scheduling noise) yields a negative value —
  // the honest reading of a measurement at the noise floor.
  Rng guard_rng(23);
  auto guard_model = std::make_shared<PreferenceActorCritic>(config, &guard_rng);
  MonitorReport guard_report;
  guard_report.duration_s = 0.05;
  guard_report.packets_sent = 100;
  guard_report.packets_acked = 99;
  guard_report.packets_lost = 1;
  guard_report.send_rate_bps = 2e6;
  guard_report.throughput_bps = 1.9e6;
  guard_report.avg_rtt_s = 0.05;
  guard_report.min_rtt_s = 0.04;
  guard_report.loss_rate = 0.01;
  PolicySpec guard_spec;
  guard_spec.WithModel(guard_model).WithPrecision(Precision::kFloat32).WithName("MOCC");
  double ungated_ops = 0.0;
  double guarded_ops = 0.0;
  double guarded_policy_overhead = 1.0;
  // Three fresh controller pairs, each timed against itself, and the median
  // pair's reading: one instance whose buffers land badly in the heap cannot
  // carry the verdict alone.
  constexpr int kGuardPairs = 3;
  const auto measure_guard = [&](int slices) {
    std::vector<PairedOpsPerSec> pairs;
    for (int i = 0; i < kGuardPairs; ++i) {
      auto cc_plain = guard_spec.WithGuard(false).MakeController(
          BalancedObjective(), /*initial_rate_bps=*/2e6);
      auto cc_guarded = guard_spec.WithGuard(true).MakeController(
          BalancedObjective(), /*initial_rate_bps=*/2e6);
      pairs.push_back(MeasurePairedOpsPerSec(
          [&] { cc_plain->OnMonitorInterval(guard_report); },
          [&] { cc_guarded->OnMonitorInterval(guard_report); }, slices));
    }
    const auto overhead = [](const PairedOpsPerSec& r) {
      return r.a > 0.0 ? 1.0 - r.b / r.a : 1.0;
    };
    std::sort(pairs.begin(), pairs.end(),
              [&](const PairedOpsPerSec& x, const PairedOpsPerSec& y) {
                return overhead(x) < overhead(y);
              });
    const PairedOpsPerSec& median = pairs[kGuardPairs / 2];
    ungated_ops = median.a;
    guarded_ops = median.b;
    guarded_policy_overhead = overhead(median);
  };
  measure_guard(kSlices);
  // Gate: the guardrail must cost < 2% of ungated decision throughput.
  constexpr double kGuardOverheadLimit = 0.02;
  if (guarded_policy_overhead >= kGuardOverheadLimit) {
    measure_guard(2 * kSlices);
    std::fprintf(stderr, "[bench] guard gate remeasured: overhead %.2f%%\n",
                 guarded_policy_overhead * 100.0);
  }
  json.Add("controller_mi_f32_ops_per_sec", ungated_ops);
  json.Add("controller_mi_f32_guarded_ops_per_sec", guarded_ops);
  json.Add("guarded_policy_overhead", guarded_policy_overhead);
  std::printf("deployment controller per-MI decisions/sec (f32):\n");
  std::printf("  unguarded              %12.0f\n", ungated_ops);
  std::printf("  guarded                %12.0f  (overhead %.2f%%)\n", guarded_ops,
              guarded_policy_overhead * 100.0);

  if (!json.Write()) {
    std::fprintf(stderr, "failed to write %s\n", json.path().c_str());
    return 1;
  }
  if (guarded_policy_overhead >= kGuardOverheadLimit) {
#if defined(__SANITIZE_ADDRESS__) || MOCC_ASAN_FEATURE
    std::fprintf(stderr,
                 "WARN: guarded-policy overhead %.2f%% exceeds the %.0f%% limit; "
                 "sanitizer build, gate not enforced\n",
                 guarded_policy_overhead * 100.0, kGuardOverheadLimit * 100.0);
#else
    std::fprintf(stderr,
                 "FAIL: guarded-policy overhead %.2f%% exceeds the %.0f%% limit — "
                 "did per-decision validation grow beyond simple bounds checks?\n",
                 guarded_policy_overhead * 100.0, kGuardOverheadLimit * 100.0);
    return 1;
#endif
  }
  return 0;
}
