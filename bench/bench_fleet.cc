// Fleet-scale sharded simulation: correctness gates + scaling sweep.
//
// Section 1 is a HARD gate, not a timing: the sharded fleet (shared pool and a
// dedicated oversubscribed pool) must be BIT-IDENTICAL to the serial threads=1
// reference — same per-shard checksums, same aggregates — and a MoccServing
// instance fed by concurrent PostReport producers must decide exactly like one
// fed the same reports through synchronous SubmitReport. Any mismatch fails
// the build in every configuration, sanitizers included (identity is exact
// regardless of instrumentation).
//
// Section 2 sweeps shards x scenarios for the throughput trajectory
// (BENCH_fleet.json) and gates multi-core scaling: the parallel fleet must run
// >= 2x faster than the serial reference on hosts with >= 4 hardware threads
// (the median of alternating serial/parallel pairs, on a fleet sized to at
// least 100 ms of serial work). On smaller hosts (the 1-vCPU CI runner) and
// under sanitizers the speedup is recorded but the gate is a WARN — the
// bit-identity gates above still hold there, so CI keeps checking correctness
// even where it cannot check scaling.
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_support.h"
#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/core/mocc_api.h"
#include "src/core/mocc_config.h"
#include "src/core/preference_model.h"
#include "src/fleet/fleet.h"

#if defined(__has_feature)
#define MOCC_ASAN_FEATURE __has_feature(address_sanitizer)
#define MOCC_TSAN_FEATURE __has_feature(thread_sanitizer)
#else
#define MOCC_ASAN_FEATURE 0
#define MOCC_TSAN_FEATURE 0
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__) || \
    MOCC_ASAN_FEATURE || MOCC_TSAN_FEATURE
#define MOCC_SANITIZED_BUILD 1
#else
#define MOCC_SANITIZED_BUILD 0
#endif

using namespace mocc;

namespace {

double WallSeconds(const std::function<void()>& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  const auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(end - start).count();
}

std::string JsonKey(std::string name) {
  for (char& c : name) {
    if (c == '-') {
      c = '_';
    }
  }
  return name;
}

MonitorReport RingReport(int flow, int round) {
  MonitorReport r;
  r.duration_s = 0.05;
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

}  // namespace

int main() {
  MoccConfig config;
  Rng rng(17);
  auto model = std::make_shared<PreferenceActorCritic>(config, &rng);

  BenchJson json("fleet");
  const unsigned hw = std::thread::hardware_concurrency();
  json.Add("hardware_concurrency", static_cast<double>(hw));

  // --- Section 1a: serial vs sharded bit-identity (HARD gate) ---------------
  FleetSpec identity_spec;
  identity_spec.scenario = "vs-cubic";
  identity_spec.num_shards = 6;
  identity_spec.episodes_per_shard = 1;
  identity_spec.steps_per_episode = 8;
  identity_spec.seed = 1234;
  identity_spec.policy.WithModel(model).WithPrecision(Precision::kFloat32);

  FleetSpec serial_spec = identity_spec;
  serial_spec.threads = 1;
  const FleetResult serial = RunFleet(serial_spec);
  if (!serial.ok) {
    std::fprintf(stderr, "FAIL: serial fleet reference failed: %s\n",
                 serial.error.c_str());
    return 1;
  }
  bool identity_ok = true;
  for (const int threads : {0, 3}) {  // shared pool, dedicated undersized pool
    FleetSpec parallel_spec = identity_spec;
    parallel_spec.threads = threads;
    const FleetResult parallel = RunFleet(parallel_spec);
    if (!parallel.ok || parallel.checksum != serial.checksum ||
        parallel.env_steps != serial.env_steps ||
        parallel.mean_reward != serial.mean_reward) {
      identity_ok = false;
      std::fprintf(stderr,
                   "FAIL: threads=%d fleet diverged from the serial reference "
                   "(checksum %016llx vs %016llx)\n",
                   threads, static_cast<unsigned long long>(parallel.checksum),
                   static_cast<unsigned long long>(serial.checksum));
    }
  }
  json.Add("fleet_identity_ok", identity_ok ? 1.0 : 0.0);
  std::printf("bit-identity serial vs sharded: %s (checksum %016llx)\n",
              identity_ok ? "OK" : "FAIL",
              static_cast<unsigned long long>(serial.checksum));

  // --- Section 1b: concurrent PostReport vs SubmitReport (HARD gate) --------
  bool ring_ok = true;
  {
    PolicySpec spec;
    spec.WithModel(model).WithPrecision(Precision::kFloat32);
    auto ring_service = CreateService(spec);
    auto sync_service = CreateService(spec);
    constexpr int kFlows = 8;
    constexpr int kRounds = 10;
    std::vector<ServingConnId> ring_ids, sync_ids;
    for (int f = 0; f < kFlows; ++f) {
      const WeightVector w{0.1 + 0.1 * (f % 3), 0.5 - 0.1 * (f % 3), 0.4};
      ring_ids.push_back(ring_service->AttachConnection(w));
      sync_ids.push_back(sync_service->AttachConnection(w));
    }
    for (int round = 0; round < kRounds && ring_ok; ++round) {
      std::vector<std::thread> producers;
      for (int f = 0; f < kFlows; ++f) {
        producers.emplace_back([&, f] {
          while (!ring_service->PostReport(ring_ids[static_cast<size_t>(f)],
                                           RingReport(f, round))) {
            std::this_thread::yield();
          }
        });
      }
      for (std::thread& t : producers) {
        t.join();
      }
      ring_service->RatePoll();
      for (int f = 0; f < kFlows; ++f) {
        sync_service->SubmitReport(sync_ids[static_cast<size_t>(f)],
                                   RingReport(f, round));
      }
      sync_service->RatePoll();
      for (int f = 0; f < kFlows; ++f) {
        if (ring_service->RateBps(ring_ids[static_cast<size_t>(f)]) !=
            sync_service->RateBps(sync_ids[static_cast<size_t>(f)])) {
          ring_ok = false;
          std::fprintf(stderr,
                       "FAIL: PostReport decisions diverged from SubmitReport "
                       "(flow %d, round %d)\n",
                       f, round);
        }
      }
    }
  }
  json.Add("fleet_ring_identity_ok", ring_ok ? 1.0 : 0.0);
  std::printf("bit-identity PostReport vs SubmitReport: %s\n",
              ring_ok ? "OK" : "FAIL");

  // --- Section 2a: shards x scenario throughput sweep -----------------------
  std::printf("%-16s %7s %14s %16s\n", "scenario", "shards", "env_steps/s",
              "agent_steps/s");
  for (const char* scenario : {"many-flow", "vs-cubic"}) {
    for (const int shards : {1, 2, 8}) {
      FleetSpec spec;
      spec.scenario = scenario;
      spec.num_shards = shards;
      spec.episodes_per_shard = 1;
      spec.steps_per_episode = 40;
      spec.seed = 7;
      spec.policy.WithModel(model).WithPrecision(Precision::kFloat32);
      spec.threads = 0;
      FleetResult result;
      const double seconds = WallSeconds([&] { result = RunFleet(spec); });
      if (!result.ok) {
        std::fprintf(stderr, "FAIL: fleet %s failed: %s\n", scenario,
                     result.error.c_str());
        return 1;
      }
      const double env_rate =
          seconds > 0.0 ? static_cast<double>(result.env_steps) / seconds : 0.0;
      const double agent_rate =
          seconds > 0.0 ? static_cast<double>(result.agent_steps) / seconds : 0.0;
      std::printf("%-16s %7d %14.0f %16.0f\n", scenario, shards, env_rate,
                  agent_rate);
      const std::string key =
          "fleet_" + JsonKey(scenario) + "_shards" + std::to_string(shards);
      json.Add(key + "_env_steps_per_sec", env_rate);
      json.Add(key + "_agent_steps_per_sec", agent_rate);
    }
  }

  // --- Section 2b: multi-core scaling gate ----------------------------------
  // Serial vs all-cores wall time of one fleet. Untimed warm-up runs each
  // way; the serial ones size the fleet, doubling its episodes until one run
  // takes kMinSerialS, so scheduling jitter stays small next to the timed
  // work. Then kScalingPairs pairs that alternate which side runs first; the
  // gate judges the median per-pair ratio, so one preempted run on a shared
  // host cannot decide it.
  constexpr double kMinSerialS = 0.1;
  constexpr int kScalingPairs = 7;
  FleetSpec scaling_spec;
  scaling_spec.scenario = "many-flow";
  scaling_spec.num_shards = 16;
  scaling_spec.episodes_per_shard = 2;
  scaling_spec.steps_per_episode = 60;
  scaling_spec.seed = 99;
  scaling_spec.policy.WithModel(model).WithPrecision(Precision::kFloat32);
  auto time_fleet = [&](int threads) {
    FleetSpec s = scaling_spec;
    s.threads = threads;
    return WallSeconds([&] { RunFleet(s); });
  };
  while (time_fleet(1) < kMinSerialS) {
    scaling_spec.episodes_per_shard *= 2;
  }
  time_fleet(0);
  std::vector<double> serial_times;
  std::vector<double> parallel_times;
  std::vector<double> ratios;
  for (int pair = 0; pair < kScalingPairs; ++pair) {
    double serial_pair_s = 0.0;
    double parallel_pair_s = 0.0;
    if (pair % 2 == 0) {
      serial_pair_s = time_fleet(1);
      parallel_pair_s = time_fleet(0);
    } else {
      parallel_pair_s = time_fleet(0);
      serial_pair_s = time_fleet(1);
    }
    serial_times.push_back(serial_pair_s);
    parallel_times.push_back(parallel_pair_s);
    ratios.push_back(parallel_pair_s > 0.0 ? serial_pair_s / parallel_pair_s : 0.0);
  }
  const double serial_s = Percentile(serial_times, 0.5);
  const double parallel_s = Percentile(parallel_times, 0.5);
  const double speedup = Percentile(ratios, 0.5);
  constexpr double kScalingFloor = 2.0;
  const bool enforce_scaling = hw >= 4 && !MOCC_SANITIZED_BUILD;
  std::printf("scaling (median of %d pairs, %d episodes/shard): serial %.3fs, "
              "%u-thread pool %.3fs, speedup %.2fx\n",
              kScalingPairs, scaling_spec.episodes_per_shard, serial_s, hw, parallel_s,
              speedup);
  json.Add("fleet_scaling_shards", scaling_spec.num_shards);
  json.Add("fleet_scaling_episodes_per_shard", scaling_spec.episodes_per_shard);
  json.Add("fleet_scaling_pairs", kScalingPairs);
  json.Add("fleet_scaling_serial_s", serial_s);
  json.Add("fleet_scaling_parallel_s", parallel_s);
  json.Add("fleet_scaling_speedup", speedup);
  json.Add("fleet_scaling_floor", kScalingFloor);
  json.Add("fleet_scaling_gate_enforced", enforce_scaling ? 1.0 : 0.0);

  if (!json.Write()) {
    std::fprintf(stderr, "failed to write %s\n", json.path().c_str());
    return 1;
  }
  if (!identity_ok || !ring_ok) {
    return 1;  // correctness gates are hard everywhere
  }
  if (speedup < kScalingFloor) {
    if (enforce_scaling) {
      std::fprintf(stderr,
                   "FAIL: fleet speedup %.2fx is below the %.1fx floor on a "
                   "%u-thread host — is the pool serializing shards?\n",
                   speedup, kScalingFloor, hw);
      return 1;
    }
    std::fprintf(stderr,
                 "WARN: fleet speedup %.2fx below the %.1fx floor; %s — gate "
                 "not enforced (see docs/BENCHMARKS.md)\n",
                 speedup, kScalingFloor,
                 hw < 4 ? "host has <4 hardware threads" : "sanitizer build");
  }
  return 0;
}
