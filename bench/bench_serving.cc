// Connection-scale serving throughput: how many flows one core can terminate
// when all MOCC decisions flow through ONE MoccServing instance (shared model,
// shared float32 replica, slab state, deadline-wheel batching — src/serving/)
// instead of the per-flow deployment of one RlRateController per flow: N
// one-connection engines, each with its own float32 replica, deciding one row
// at a time. Both shapes run the same decision code, so the ratio measures
// batching and the shared replica.
//
// Three sections:
//   1. Bit-exactness (hard gate, sanitizers included): at equal decision counts
//      and identical report streams, every serving rate must equal the per-flow
//      controller's rate to the last bit — a connection's decisions must not
//      depend on its batch (384 connections span a 256-row chunk boundary). A
//      mismatch is a correctness bug, not a perf regression — exit 1
//      unconditionally.
//   2. Equal-decision throughput: N externally clocked connections, one
//      SubmitReport per flow per round, one RatePoll deciding the whole round in
//      a single batched forward vs. N per-flow OnMonitorInterval calls.
//      Gate: serving must sustain >= 5x the per-flow decision rate (the CI
//      floor; the PR target is 10x — reported, not gated). Soft-gate (WARN)
//      under sanitizers, one remeasure with doubled windows before failing —
//      the bench_scenarios pattern.
//   3. Wheel-driven self-timed flows: connections with staggered monitor
//      intervals clocked by the service tick, synthesizing reports from the
//      OnAck/OnPacketSent accumulators. Measures p99 RatePoll latency (the
//      stall a decision batch imposes on the datapath thread) and fills the
//      batch-size histogram.
//
// Writes BENCH_serving.json (flows_per_core, serving/perflow decisions/s,
// speedup, p99 latency, batch histogram) — key table in docs/BENCHMARKS.md.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_support.h"
#include "src/common/rng.h"
#include "src/core/mocc_api.h"
#include "src/core/mocc_config.h"
#include "src/core/policy_spec.h"
#include "src/core/preference_model.h"
#include "src/baselines/rl_cc.h"

// ASan detection across compilers: gcc defines __SANITIZE_ADDRESS__, clang
// reports it through __has_feature.
#if defined(__has_feature)
#define MOCC_ASAN_FEATURE __has_feature(address_sanitizer)
#else
#define MOCC_ASAN_FEATURE 0
#endif

using namespace mocc;

namespace {

// The paper's monitor-interval cadence: one decision per flow per 50 ms MI.
constexpr double kMiDurationS = 0.05;
constexpr double kInitialRateBps = 2e6;
constexpr double kSpeedupFloor = 5.0;  // CI gate; the PR target is 10x.

// Four distinct objectives cycled across flows — the realistic serving mix that
// exercises the one-PN-recompute-per-distinct-prefix batching.
WeightVector FlowWeight(int flow) {
  static const WeightVector kMix[] = {{0.8, 0.1, 0.1},
                                      {1.0 / 3, 1.0 / 3, 1.0 / 3},
                                      {0.1, 0.8, 0.1},
                                      {0.1, 0.1, 0.8}};
  return kMix[flow % 4];
}

// Deterministic per-(flow, round) report stream, independent of the decided
// rate so the serving and per-flow paths see byte-identical inputs.
MonitorReport MakeReport(int flow, int round) {
  MonitorReport r;
  r.duration_s = kMiDurationS;
  r.packets_sent = 100 + flow % 7;
  r.packets_lost = (round + flow) % 3 == 0 ? 1 : 0;
  r.packets_acked = r.packets_sent - r.packets_lost;
  r.send_rate_bps = 2e6 + 1e4 * (flow % 13);
  r.throughput_bps = r.send_rate_bps * 0.95;
  r.avg_rtt_s = 0.045 + 1e-4 * ((round + flow) % 5);
  r.min_rtt_s = 0.040;
  r.loss_rate = static_cast<double>(r.packets_lost) / r.packets_sent;
  return r;
}

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

// --- Section 2 runners -------------------------------------------------------

// Per-flow baseline: `flows` float32 controllers (one-connection engines, each
// with its own replica), one OnMonitorInterval per flow per round. Returns
// decisions/second.
double MeasurePerflow(const PolicySpec& spec, int flows, double window_s) {
  std::vector<std::unique_ptr<RlRateController>> ccs;
  ccs.reserve(flows);
  for (int f = 0; f < flows; ++f) {
    ccs.push_back(spec.MakeController(FlowWeight(f), kInitialRateBps));
  }
  int64_t decisions = 0;
  int round = 0;
  const auto t0 = std::chrono::steady_clock::now();
  double elapsed = 0.0;
  do {
    for (int f = 0; f < flows; ++f) {
      ccs[f]->OnMonitorInterval(MakeReport(f, round));
    }
    decisions += flows;
    ++round;
    elapsed = SecondsSince(t0);
  } while (elapsed < window_s);
  return decisions / elapsed;
}

// Serving path: one service, `flows` attached connections, one SubmitReport per
// flow per round and one RatePoll deciding the whole round as a single batch.
// Returns decisions/second.
double MeasureServing(const PolicySpec& spec, int flows, double window_s) {
  std::unique_ptr<MoccServing> service = CreateService(spec);
  std::vector<ServingConnId> conns;
  conns.reserve(flows);
  MoccServing::ConnectionOptions copts;
  copts.initial_rate_bps = kInitialRateBps;
  for (int f = 0; f < flows; ++f) {
    conns.push_back(service->AttachConnection(FlowWeight(f), copts));
  }
  int64_t decisions = 0;
  int round = 0;
  const auto t0 = std::chrono::steady_clock::now();
  double elapsed = 0.0;
  do {
    for (int f = 0; f < flows; ++f) {
      service->SubmitReport(conns[f], MakeReport(f, round));
    }
    decisions += static_cast<int64_t>(service->RatePoll());
    ++round;
    elapsed = SecondsSince(t0);
  } while (elapsed < window_s);
  return decisions / elapsed;
}

}  // namespace

int main() {
  MoccConfig config;
  Rng rng(17);
  // Untrained Figure-3 model: inference cost is weight-independent.
  auto model = std::make_shared<PreferenceActorCritic>(config, &rng);
  PolicySpec spec;
  spec.WithModel(model).WithPrecision(Precision::kFloat32).WithInitialRate(kInitialRateBps);

  BenchJson json("serving");

  // --- 1. Bit-exactness: serving rates == per-flow controller rates ---------
  {
    // 384 spans a 256-row chunk boundary (ServingEngine::kMaxBatchRows) and an
    // odd trailing row of the pair kernel, so one poll exercises every batch
    // shape the engine produces.
    constexpr int kFlows = 384;
    constexpr int kRounds = 50;
    std::vector<std::unique_ptr<RlRateController>> ccs;
    for (int f = 0; f < kFlows; ++f) {
      ccs.push_back(spec.MakeController(FlowWeight(f), kInitialRateBps));
    }
    std::unique_ptr<MoccServing> service = CreateService(spec);
    MoccServing::ConnectionOptions copts;
    copts.initial_rate_bps = kInitialRateBps;
    std::vector<ServingConnId> conns;
    for (int f = 0; f < kFlows; ++f) {
      conns.push_back(service->AttachConnection(FlowWeight(f), copts));
    }
    int64_t mismatches = 0;
    for (int round = 0; round < kRounds; ++round) {
      for (int f = 0; f < kFlows; ++f) {
        const MonitorReport report = MakeReport(f, round);
        ccs[f]->OnMonitorInterval(report);
        service->SubmitReport(conns[f], report);
      }
      service->RatePoll();
      for (int f = 0; f < kFlows; ++f) {
        if (service->RateBps(conns[f]) != ccs[f]->PacingRateBps()) {
          ++mismatches;
        }
      }
    }
    json.Add("bitexact_flows", kFlows);
    json.Add("bitexact_rounds", kRounds);
    json.Add("bitexact_mismatches", static_cast<double>(mismatches));
    if (mismatches != 0) {
      std::fprintf(stderr,
                   "FAIL: %lld serving rates differ from the per-flow float32 "
                   "controllers on identical report streams\n",
                   static_cast<long long>(mismatches));
      json.Write();
      return 1;
    }
    std::printf("bit-exact: %d flows x %d rounds, serving == per-flow to the last bit\n",
                kFlows, kRounds);
  }

  // --- 2. Equal-decision throughput: serving vs per-flow --------------------
  // Gated scale: 4096 connections. The per-flow baseline's private replicas
  // stop fitting in cache long before that (its throughput falls off with flow
  // count while serving's shared-weight batches hold), so a secondary
  // 1024-flow sample is recorded alongside to keep the scaling story honest in
  // the JSON trajectory.
  constexpr int kFlows = 8192;
  constexpr int kSmallFlows = 1024;
  double perflow_dps = 0.0;
  double serving_dps = 0.0;
  auto run_pair = [&](double window_s) {
    perflow_dps = MeasurePerflow(spec, kFlows, window_s);
    serving_dps = MeasureServing(spec, kFlows, window_s);
  };
  const double perflow_small_dps = MeasurePerflow(spec, kSmallFlows, /*window_s=*/0.2);
  const double serving_small_dps = MeasureServing(spec, kSmallFlows, /*window_s=*/0.2);
  run_pair(/*window_s=*/0.4);
  double speedup = perflow_dps > 0.0 ? serving_dps / perflow_dps : 0.0;
  if (speedup < kSpeedupFloor) {
    // One remeasure with doubled windows before judging (repo-wide rule for
    // noisy shared runners).
    run_pair(/*window_s=*/0.8);
    speedup = perflow_dps > 0.0 ? serving_dps / perflow_dps : 0.0;
    std::fprintf(stderr, "[bench] serving gate remeasured: %.1fx\n", speedup);
  }
  // Flows one core sustains at the paper's 20 decisions/s/flow MI cadence.
  const double flows_per_core = serving_dps * kMiDurationS;
  std::printf("equal-decision (%d flows): serving %.0f dec/s, per-flow %.0f dec/s "
              "-> %.1fx (%.0f flows/core @ %.0f ms MI)\n",
              kFlows, serving_dps, perflow_dps, speedup, flows_per_core,
              kMiDurationS * 1e3);
  json.Add("flows", kFlows);
  json.Add("serving_decisions_per_sec", serving_dps);
  json.Add("perflow_decisions_per_sec", perflow_dps);
  json.Add("serving_speedup_vs_perflow", speedup);
  json.Add("flows_per_core", flows_per_core);
  json.Add("small_scale_flows", kSmallFlows);
  json.Add("small_scale_serving_decisions_per_sec", serving_small_dps);
  json.Add("small_scale_perflow_decisions_per_sec", perflow_small_dps);
  json.Add("small_scale_speedup",
           perflow_small_dps > 0.0 ? serving_small_dps / perflow_small_dps : 0.0);

  // --- 2b. Int8 quantized serving -------------------------------------------
  // The same engine with --precision int8 connections: per-row quantized
  // inference instead of the batched f32 staging. Recorded at the 1024-flow
  // scale next to the f32 sample so the JSON trajectory carries the quantized
  // serving rate (and its ratio) across PRs.
  {
    PolicySpec int8_spec = spec;
    int8_spec.WithPrecision(Precision::kInt8);
    const double int8_small_dps =
        MeasureServing(int8_spec, kSmallFlows, /*window_s=*/0.2);
    json.Add("small_scale_int8_serving_decisions_per_sec", int8_small_dps);
    json.Add("small_scale_int8_speedup_vs_f32",
             serving_small_dps > 0.0 ? int8_small_dps / serving_small_dps : 0.0);
    std::printf("int8 serving (%d flows): %.0f dec/s (%.2fx vs f32 serving)\n",
                kSmallFlows, int8_small_dps,
                serving_small_dps > 0.0 ? int8_small_dps / serving_small_dps : 0.0);
  }

  // --- 3. Wheel-driven self-timed flows: p99 poll latency + batch sizes -----
  {
    constexpr int kTimedFlows = 512;
    constexpr int kTicks = 1500;
    std::unique_ptr<MoccServing> service = CreateService(spec);
    const double tick_s = 0.001;
    std::vector<ServingConnId> conns;
    for (int f = 0; f < kTimedFlows; ++f) {
      MoccServing::ConnectionOptions copts;
      copts.initial_rate_bps = kInitialRateBps;
      // Staggered MIs (10/20/30/40 ms) so every tick expires a different mix of
      // connections and batch sizes spread across the histogram.
      copts.mi_duration_s = 0.010 * (1 + f % 4);
      copts.start_time_s = 0.0;
      conns.push_back(service->AttachConnection(FlowWeight(f), copts));
    }
    AckInfo ack;
    ack.rtt_s = 0.045;
    ack.size_bits = 12000;
    std::vector<double> poll_s;
    poll_s.reserve(kTicks);
    int64_t timed_decisions = 0;
    for (int tick = 1; tick <= kTicks; ++tick) {
      const double now_s = tick * tick_s;
      for (int f = 0; f < kTimedFlows; ++f) {
        service->OnPacketSent(conns[f], 2);
        service->OnAck(conns[f], ack);
      }
      const auto t0 = std::chrono::steady_clock::now();
      const size_t decided = service->RatePoll(now_s);
      if (decided > 0) {
        poll_s.push_back(SecondsSince(t0));
        timed_decisions += static_cast<int64_t>(decided);
      }
    }
    std::sort(poll_s.begin(), poll_s.end());
    const double p50_us =
        poll_s.empty() ? 0.0 : poll_s[poll_s.size() / 2] * 1e6;
    const double p99_us =
        poll_s.empty() ? 0.0 : poll_s[poll_s.size() * 99 / 100] * 1e6;
    const MoccServing::Stats& stats = service->stats();
    std::printf("self-timed (%d flows, %d ticks): %lld decisions, poll latency "
                "p50 %.1f us, p99 %.1f us, max batch %lld\n",
                kTimedFlows, kTicks, static_cast<long long>(timed_decisions),
                p50_us, p99_us, static_cast<long long>(stats.max_batch));
    json.Add("timed_flows", kTimedFlows);
    json.Add("timed_decisions", static_cast<double>(timed_decisions));
    json.Add("p50_decision_latency_us", p50_us);
    json.Add("p99_decision_latency_us", p99_us);
    json.Add("max_batch", static_cast<double>(stats.max_batch));
    for (size_t i = 0; i < stats.batch_size_log2_hist.size(); ++i) {
      if (stats.batch_size_log2_hist[i] > 0) {
        json.Add("batch_hist_log2_" + std::to_string(i),
                 static_cast<double>(stats.batch_size_log2_hist[i]));
      }
    }
  }

  if (!json.Write()) {
    std::fprintf(stderr, "failed to write %s\n", json.path().c_str());
    return 1;
  }

  if (speedup < kSpeedupFloor) {
#if defined(__SANITIZE_ADDRESS__) || MOCC_ASAN_FEATURE
    std::fprintf(stderr,
                 "WARN: serving speedup %.1fx is below the %.0fx floor; "
                 "sanitizer build, soft gate\n",
                 speedup, kSpeedupFloor);
#else
    std::fprintf(stderr, "FAIL: serving speedup %.1fx is below the %.0fx floor\n",
                 speedup, kSpeedupFloor);
    return 1;
#endif
  }
  return 0;
}
