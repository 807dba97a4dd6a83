// Figure 17 — CPU overhead of the control loop (§6.5), measured with google-benchmark
// as the CPU cost per monitor interval of each scheme's control path:
//  * user-space MOCC (UDT shim): one policy inference per interval — like Aurora;
//  * kernel-space MOCC (CCP shim): feedback batched, inference 4x less often — like
//    Orca's decoupled control;
//  * handcrafted heuristics: a handful of arithmetic ops per ACK/interval.
// The paper's finding is the RELATIVE ordering (user-space RL >> kernel RL ~ heuristics),
// which per-tick CPU time reproduces directly.
#include <benchmark/benchmark.h>

#include "bench/bench_support.h"
#include "src/baselines/bbr.h"
#include "src/baselines/cubic.h"
#include "src/baselines/vegas.h"
#include "src/common/rng.h"
#include "src/core/datapath.h"
#include "src/core/mocc_api.h"
#include "src/core/mocc_config.h"
#include "src/core/preference_model.h"
#include "src/nn/mlp.h"
#include "src/rl/inference_policy.h"

namespace mocc {
namespace {

MonitorReport TickReport(int i) {
  MonitorReport r;
  r.start_time_s = 0.05 * i;
  r.duration_s = 0.05;
  r.packets_sent = 40;
  r.packets_acked = 39;
  r.packets_lost = 1;
  r.send_rate_bps = 9.6e6;
  r.throughput_bps = 9.4e6;
  r.avg_rtt_s = 0.042 + 0.001 * (i % 5);
  r.min_rtt_s = 0.040;
  r.loss_rate = 0.025;
  return r;
}

std::shared_ptr<MoccApi> MakeApi() {
  MoccApi::Options options;
  auto api = std::make_shared<MoccApi>(BenchBaseModel(), options);
  api->Register(ThroughputObjective());
  return api;
}

void BM_MoccUdtUserSpaceTick(benchmark::State& state) {
  auto api = MakeApi();
  UdtShimDatapath shim(api);
  int i = 0;
  for (auto _ : state) {
    shim.OnNetworkTick(TickReport(i++));
    benchmark::DoNotOptimize(shim.SendingRateBps());
  }
  state.counters["inferences_per_tick"] =
      static_cast<double>(shim.control_invocations()) / state.iterations();
}
BENCHMARK(BM_MoccUdtUserSpaceTick);

void BM_MoccCcpKernelTick(benchmark::State& state) {
  auto api = MakeApi();
  CcpShimDatapath shim(api, /*batch_size=*/4);
  int i = 0;
  for (auto _ : state) {
    shim.OnNetworkTick(TickReport(i++));
    benchmark::DoNotOptimize(shim.SendingRateBps());
  }
  state.counters["inferences_per_tick"] =
      static_cast<double>(shim.control_invocations()) / state.iterations();
}
BENCHMARK(BM_MoccCcpKernelTick);

void BM_AuroraUserSpaceTick(benchmark::State& state) {
  auto model = BenchAuroraModel("bench_aurora_thr", ThroughputObjective());
  auto cc = MakeAuroraCc(model);
  int i = 0;
  for (auto _ : state) {
    cc->OnMonitorInterval(TickReport(i++));
    benchmark::DoNotOptimize(cc->PacingRateBps());
  }
}
BENCHMARK(BM_AuroraUserSpaceTick);

void BM_CubicAckPath(benchmark::State& state) {
  CubicCc cubic;
  AckInfo ack;
  ack.rtt_s = 0.042;
  int i = 0;
  for (auto _ : state) {
    ack.ack_time_s = 0.001 * i++;
    cubic.OnAck(ack);
    benchmark::DoNotOptimize(cubic.CwndPackets());
  }
}
BENCHMARK(BM_CubicAckPath);

void BM_VegasAckPath(benchmark::State& state) {
  VegasCc vegas;
  AckInfo ack;
  ack.rtt_s = 0.042;
  int i = 0;
  for (auto _ : state) {
    ack.ack_time_s = 0.001 * i++;
    vegas.OnAck(ack);
    benchmark::DoNotOptimize(vegas.CwndPackets());
  }
}
BENCHMARK(BM_VegasAckPath);

void BM_BbrTick(benchmark::State& state) {
  BbrCc bbr;
  bbr.OnFlowStart(0.0);
  int i = 0;
  for (auto _ : state) {
    bbr.OnMonitorInterval(TickReport(i++));
    benchmark::DoNotOptimize(bbr.PacingRateBps());
  }
}
BENCHMARK(BM_BbrTick);

// ---------------------------------------------------------------------------
// Policy-inference paths: the allocation-free batched path vs. the fused
// single-row fast path, in double and float32. Inference cost does not depend
// on the weight values, so these run on untrained models (no zoo required).
// ---------------------------------------------------------------------------

std::vector<double> InferenceObservation(size_t dim) {
  std::vector<double> obs(dim);
  Rng rng(99);
  for (auto& x : obs) {
    x = rng.Uniform(-1.0, 1.0);
  }
  return obs;
}

void BM_MoccInferenceBatchedPath(benchmark::State& state) {
  MoccConfig config;
  Rng rng(1);
  PreferenceActorCritic model(config, &rng);
  const std::vector<double> obs = InferenceObservation(config.ObsDim());
  Matrix x(1, obs.size());
  Matrix mean;
  Matrix value;
  for (auto _ : state) {
    x.SetRow(0, obs);
    model.Forward(x, &mean, &value);
    benchmark::DoNotOptimize(mean(0, 0) + value(0, 0));
  }
}
BENCHMARK(BM_MoccInferenceBatchedPath);

void BM_MoccInferenceFastRow(benchmark::State& state) {
  MoccConfig config;
  Rng rng(1);
  PreferenceActorCritic model(config, &rng);
  const std::vector<double> obs = InferenceObservation(config.ObsDim());
  double mean = 0.0;
  double value = 0.0;
  for (auto _ : state) {
    model.ForwardRow(obs, &mean, &value);
    benchmark::DoNotOptimize(mean + value);
  }
}
BENCHMARK(BM_MoccInferenceFastRow);

void BM_MoccInferenceFastRowFloat32(benchmark::State& state) {
  MoccConfig config;
  Rng rng(1);
  PreferenceActorCritic model(config, &rng);
  auto policy = model.MakeFloat32Policy();
  const std::vector<double> obs = InferenceObservation(config.ObsDim());
  double mean = 0.0;
  double value = 0.0;
  for (auto _ : state) {
    policy->ForwardRow(obs, &mean, &value);
    benchmark::DoNotOptimize(mean + value);
  }
}
BENCHMARK(BM_MoccInferenceFastRowFloat32);

}  // namespace
}  // namespace mocc

BENCHMARK_MAIN();
