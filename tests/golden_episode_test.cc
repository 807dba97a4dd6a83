// Golden-file regression harness for the packet-level simulation core.
//
// tests/data/golden_episodes.txt holds full-precision (hex-float) summaries of
// fixed-seed single-bottleneck episodes captured from the event engine BEFORE the
// topology-general refactor, plus one MultiFlowCcEnv episode driven by a
// deterministic closed-form action schedule. The engine rewrite (pooled event
// heap, ACK coalescing, per-link droptail rings, contiguous flow storage) must
// reproduce these episodes: on one binary the reproduction is bit-identical
// (verified by regenerating and diffing the hex file), and against the committed
// goldens the test allows only the tiny drift that compiler flag differences can
// introduce (CI builds with -DMOCC_NATIVE_ARCH=OFF, developers with
// -march=native, so FMA contraction in smoothed-RTT style updates legitimately
// differs by ulps between binaries).
//
// Comparison contract:
//   - packet counters (sent/acked/lost) and monitor-interval counts: exact.
//     These flip only if event ordering, RNG consumption, droptail admission or
//     ACK scheduling changed — precisely the bugs this file exists to catch.
//   - times/rates (contraction-free sums and quotients of event times): 1e-9
//     relative tolerance.
//   - MultiFlowCcEnv reward sums (go through libm in the reward): 1e-6 relative.
//
// Regenerate with: MOCC_REGEN_GOLDENS=1 ./golden_episode_test
// (writes into the source tree's tests/data/; commit the result).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/baselines/bbr.h"
#include "src/baselines/cubic.h"
#include "src/baselines/vegas.h"
#include "src/envs/multi_flow_cc_env.h"
#include "src/netsim/packet_network.h"

#ifndef MOCC_TEST_DATA_DIR
#define MOCC_TEST_DATA_DIR "tests/data"
#endif

namespace mocc {
namespace {

constexpr char kGoldenFile[] = "golden_episodes.txt";
constexpr double kTimeRelTol = 1e-9;
constexpr double kRewardRelTol = 1e-6;

std::string DataPath() {
  return std::string(MOCC_TEST_DATA_DIR) + "/" + kGoldenFile;
}

// Fixed-rate and fixed-window probes (the netsim_test drivers, duplicated here so
// the golden episodes do not depend on test-only headers).
class FixedRateCc : public CongestionControl {
 public:
  explicit FixedRateCc(double rate_bps) : rate_bps_(rate_bps) {}
  CcMode Mode() const override { return CcMode::kRateBased; }
  std::string Name() const override { return "FixedRate"; }
  double PacingRateBps() const override { return rate_bps_; }
  int monitor_calls = 0;
  void OnMonitorInterval(const MonitorReport&) override { ++monitor_calls; }

 private:
  double rate_bps_;
};

class FixedWindowCc : public CongestionControl {
 public:
  explicit FixedWindowCc(double cwnd) : cwnd_(cwnd) {}
  CcMode Mode() const override { return CcMode::kWindowBased; }
  std::string Name() const override { return "FixedWindow"; }
  double CwndPackets() const override { return cwnd_; }
  int monitor_calls = 0;
  void OnMonitorInterval(const MonitorReport&) override { ++monitor_calls; }

 private:
  double cwnd_;
};

struct FlowGold {
  int64_t sent = 0;
  int64_t acked = 0;
  int64_t lost = 0;
  int64_t mi_count = 0;
  double min_rtt_s = 0.0;
  double last_ack_s = 0.0;
  double thr_early_bps = 0.0;  // delivered rate over the first half
  double thr_late_bps = 0.0;   // delivered rate over the second half
};

struct EpisodeGold {
  std::string name;
  std::vector<FlowGold> flows;
  // MultiFlowCcEnv-only extras (empty for raw PacketNetwork episodes).
  std::vector<double> reward_sums;
  double jain = -1.0;
};

FlowGold CaptureFlow(const PacketNetwork& net, int flow_id, int monitor_calls,
                     double duration_s) {
  const FlowRecord& rec = net.record(flow_id);
  FlowGold g;
  g.sent = rec.total_sent;
  g.acked = rec.total_acked;
  g.lost = rec.total_lost;
  g.mi_count = monitor_calls;
  g.min_rtt_s = rec.min_rtt_s;
  g.last_ack_s = rec.last_ack_time_s;
  g.thr_early_bps = rec.AvgThroughputBps(0.0, duration_s / 2);
  g.thr_late_bps = rec.AvgThroughputBps(duration_s / 2, duration_s);
  return g;
}

// Episode 1: three rate-based flows (one with extra one-way delay) overdriving a
// lossy, trace-modulated bottleneck. Exercises pacing jitter RNG, Bernoulli wire
// loss, droptail admission, the bandwidth trace, and heterogeneous-RTT ACK
// scheduling — with send decisions independent of smoothed-RTT state, so the
// integer counters are stable across compiler flag variants.
EpisodeGold RunRateLossTrace() {
  constexpr double kDuration = 15.0;
  LinkParams p;
  p.bandwidth_bps = 6e6;
  p.one_way_delay_s = 0.015;
  p.queue_capacity_pkts = 40;
  p.random_loss_rate = 0.02;
  PacketNetwork net(p, /*seed=*/20260731);
  BandwidthTrace trace;
  trace.AddStep(0.0, 6e6);
  trace.AddStep(5.0, 2.5e6);
  trace.AddStep(10.0, 8e6);
  net.SetBandwidthTrace(trace);

  std::vector<FixedRateCc*> ccs;
  std::vector<int> ids;
  auto add = [&](double rate_bps, FlowOptions opts) {
    auto cc = std::make_unique<FixedRateCc>(rate_bps);
    ccs.push_back(cc.get());
    ids.push_back(net.AddFlow(std::move(cc), opts));
  };
  add(4e6, {});
  FlowOptions late;
  late.start_time_s = 2.0;
  add(3e6, late);
  FlowOptions far;
  far.extra_one_way_delay_s = 0.030;
  add(2e6, far);
  net.Run(kDuration);

  EpisodeGold gold;
  gold.name = "rate_loss_trace";
  for (size_t i = 0; i < ids.size(); ++i) {
    gold.flows.push_back(CaptureFlow(net, ids[i], ccs[i]->monitor_calls, kDuration));
  }
  return gold;
}

// Episode 2: ACK-clocked window flows against a rate-based flow on a shallow
// buffer, with a mid-episode stop. Exercises TrySendWindowed bursts, droptail
// under ack-clocking, flow stop events and the RTO check path.
EpisodeGold RunWindowMix() {
  constexpr double kDuration = 15.0;
  LinkParams p;
  p.bandwidth_bps = 8e6;
  p.one_way_delay_s = 0.020;
  p.queue_capacity_pkts = 25;
  PacketNetwork net(p, /*seed=*/424242);

  EpisodeGold gold;
  gold.name = "window_mix";
  std::vector<int> ids;
  auto w1 = std::make_unique<FixedWindowCc>(60.0);
  FixedWindowCc* w1_raw = w1.get();
  ids.push_back(net.AddFlow(std::move(w1)));
  auto w2 = std::make_unique<FixedWindowCc>(30.0);
  FixedWindowCc* w2_raw = w2.get();
  FlowOptions stopper;
  stopper.start_time_s = 1.0;
  stopper.stop_time_s = 9.0;
  ids.push_back(net.AddFlow(std::move(w2), stopper));
  auto r = std::make_unique<FixedRateCc>(3e6);
  FixedRateCc* r_raw = r.get();
  ids.push_back(net.AddFlow(std::move(r)));
  net.Run(kDuration);
  gold.flows.push_back(CaptureFlow(net, ids[0], w1_raw->monitor_calls, kDuration));
  gold.flows.push_back(CaptureFlow(net, ids[1], w2_raw->monitor_calls, kDuration));
  gold.flows.push_back(CaptureFlow(net, ids[2], r_raw->monitor_calls, kDuration));
  return gold;
}

// Episode 3: handcrafted baselines (CUBIC, BBR, Vegas) competing on a mid-range
// link — the closest analogue of the paper's friendliness runs, and the episode
// most sensitive to any change in ACK timing or event order.
EpisodeGold RunBaselineMix() {
  constexpr double kDuration = 20.0;
  LinkParams p;
  p.bandwidth_bps = 8e6;
  p.one_way_delay_s = 0.020;
  p.queue_capacity_pkts = 120;
  PacketNetwork net(p, /*seed=*/777);
  std::vector<int> ids;
  ids.push_back(net.AddFlow(std::make_unique<CubicCc>()));
  FlowOptions second;
  second.start_time_s = 3.0;
  ids.push_back(net.AddFlow(std::make_unique<BbrCc>(), second));
  ids.push_back(net.AddFlow(std::make_unique<VegasCc>()));
  net.Run(kDuration);
  EpisodeGold gold;
  gold.name = "baseline_mix";
  for (int id : ids) {
    gold.flows.push_back(CaptureFlow(net, id, 0, kDuration));
  }
  return gold;
}

// Deterministic closed-form action schedule (integer arithmetic only, so the
// driving sequence is identical on every compiler/libm).
double GoldenAction(int step, int agent) {
  return static_cast<double>((step * 7 + agent * 13) % 11 - 5) * 0.04;
}

// Episode 4: a MultiFlowCcEnv episode — 4 staggered agents plus a CUBIC
// competitor on one fixed bottleneck — capturing per-agent reward sums, average
// throughputs and the steady-state Jain index. This pins the whole env-over-
// simulator stack (synchronized MIs, fair-share reward, competitor scheduling).
EpisodeGold RunMultiFlowEpisode() {
  MultiFlowCcEnvConfig config;
  config.num_agents = 4;
  LinkParams link;
  link.bandwidth_bps = 4e6;
  link.one_way_delay_s = 0.020;
  link.queue_capacity_pkts = 300;
  config.fixed_link = link;
  config.agent_stagger_s = 1.0;
  config.competitor_schemes = {"cubic"};
  config.competitor_start_s = 2.0;
  config.competitor_stop_s = 8.0;
  config.max_steps_per_episode = 150;
  MultiFlowCcEnv env(config, /*seed=*/3131);
  env.SetObjective(WeightVector(0.4, 0.4, 0.2));

  std::vector<std::vector<double>> obs = env.Reset();
  EpisodeGold gold;
  gold.name = "multi_flow_episode";
  gold.reward_sums.assign(4, 0.0);
  std::vector<double> actions(4, 0.0);
  int steps = 0;
  for (bool done = false; !done; ++steps) {
    for (int i = 0; i < 4; ++i) {
      actions[static_cast<size_t>(i)] = GoldenAction(steps, i);
    }
    VectorStepResult r = env.Step(actions);
    for (int i = 0; i < 4; ++i) {
      gold.reward_sums[static_cast<size_t>(i)] += r.rewards[static_cast<size_t>(i)];
    }
    done = r.done;
  }
  const double horizon = env.now_s();
  const std::vector<double> throughputs = env.AgentAvgThroughputsBps(0.0, horizon);
  for (int i = 0; i < 4; ++i) {
    FlowGold g;
    g.thr_early_bps = throughputs[static_cast<size_t>(i)];
    g.sent = steps;
    gold.flows.push_back(g);
  }
  gold.jain = env.JainIndex(horizon / 2, horizon);
  return gold;
}

std::vector<EpisodeGold> CaptureAll() {
  std::vector<EpisodeGold> episodes;
  episodes.push_back(RunRateLossTrace());
  episodes.push_back(RunWindowMix());
  episodes.push_back(RunBaselineMix());
  episodes.push_back(RunMultiFlowEpisode());
  return episodes;
}

bool WriteGoldens(const std::string& path, const std::vector<EpisodeGold>& episodes) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "# golden episode traces v1: per flow "
                  "sent acked lost mi min_rtt last_ack thr_early thr_late (hex)\n");
  for (const EpisodeGold& ep : episodes) {
    std::fprintf(f, "episode %s flows %zu\n", ep.name.c_str(), ep.flows.size());
    for (const FlowGold& g : ep.flows) {
      std::fprintf(f, "flow %lld %lld %lld %lld %a %a %a %a\n",
                   static_cast<long long>(g.sent), static_cast<long long>(g.acked),
                   static_cast<long long>(g.lost), static_cast<long long>(g.mi_count),
                   g.min_rtt_s, g.last_ack_s, g.thr_early_bps, g.thr_late_bps);
    }
    for (double reward : ep.reward_sums) {
      std::fprintf(f, "reward %a\n", reward);
    }
    if (ep.jain >= 0.0) {
      std::fprintf(f, "jain %a\n", ep.jain);
    }
  }
  const bool ok = std::fflush(f) == 0;
  std::fclose(f);
  return ok;
}

bool ReadGoldens(const std::string& path, std::vector<EpisodeGold>* episodes) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) {
    return false;
  }
  char line[512];
  episodes->clear();
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (line[0] == '#') {
      continue;
    }
    char name[128];
    size_t flow_count = 0;
    FlowGold g;
    long long sent = 0;
    long long acked = 0;
    long long lost = 0;
    long long mi = 0;
    double reward = 0.0;
    double jain = 0.0;
    if (std::sscanf(line, "episode %127s flows %zu", name, &flow_count) == 2) {
      EpisodeGold ep;
      ep.name = name;
      episodes->push_back(ep);
    } else if (std::sscanf(line, "flow %lld %lld %lld %lld %la %la %la %la", &sent,
                           &acked, &lost, &mi, &g.min_rtt_s, &g.last_ack_s,
                           &g.thr_early_bps, &g.thr_late_bps) == 8 &&
               !episodes->empty()) {
      g.sent = sent;
      g.acked = acked;
      g.lost = lost;
      g.mi_count = mi;
      episodes->back().flows.push_back(g);
    } else if (std::sscanf(line, "reward %la", &reward) == 1 && !episodes->empty()) {
      episodes->back().reward_sums.push_back(reward);
    } else if (std::sscanf(line, "jain %la", &jain) == 1 && !episodes->empty()) {
      episodes->back().jain = jain;
    }
  }
  std::fclose(f);
  return !episodes->empty();
}

void ExpectNearRel(double actual, double expected, double rel_tol,
                   const std::string& what) {
  const double tol = rel_tol * std::max(1.0, std::abs(expected));
  EXPECT_NEAR(actual, expected, tol) << what;
}

TEST(GoldenEpisodeTest, EnginesReproduceCommittedEpisodes) {
  const std::string path = DataPath();
  if (std::getenv("MOCC_REGEN_GOLDENS") != nullptr) {
    ASSERT_TRUE(WriteGoldens(path, CaptureAll())) << path;
    GTEST_SKIP() << "regenerated goldens in " << path;
  }
  std::vector<EpisodeGold> expected;
  ASSERT_TRUE(ReadGoldens(path, &expected))
      << path << " (regenerate with MOCC_REGEN_GOLDENS=1)";

  const std::vector<EpisodeGold> actual = CaptureAll();
  ASSERT_EQ(actual.size(), expected.size());
  for (size_t e = 0; e < expected.size(); ++e) {
    const EpisodeGold& want = expected[e];
    const EpisodeGold& got = actual[e];
    SCOPED_TRACE(want.name);
    ASSERT_EQ(got.name, want.name);
    ASSERT_EQ(got.flows.size(), want.flows.size());
    for (size_t i = 0; i < want.flows.size(); ++i) {
      const std::string tag = want.name + " flow " + std::to_string(i);
      EXPECT_EQ(got.flows[i].sent, want.flows[i].sent) << tag;
      EXPECT_EQ(got.flows[i].acked, want.flows[i].acked) << tag;
      EXPECT_EQ(got.flows[i].lost, want.flows[i].lost) << tag;
      EXPECT_EQ(got.flows[i].mi_count, want.flows[i].mi_count) << tag;
      ExpectNearRel(got.flows[i].min_rtt_s, want.flows[i].min_rtt_s, kTimeRelTol, tag);
      ExpectNearRel(got.flows[i].last_ack_s, want.flows[i].last_ack_s, kTimeRelTol, tag);
      ExpectNearRel(got.flows[i].thr_early_bps, want.flows[i].thr_early_bps, kTimeRelTol,
                    tag);
      ExpectNearRel(got.flows[i].thr_late_bps, want.flows[i].thr_late_bps, kTimeRelTol,
                    tag);
    }
    ASSERT_EQ(got.reward_sums.size(), want.reward_sums.size());
    for (size_t i = 0; i < want.reward_sums.size(); ++i) {
      ExpectNearRel(got.reward_sums[i], want.reward_sums[i], kRewardRelTol,
                    want.name + " reward " + std::to_string(i));
    }
    if (want.jain >= 0.0) {
      ExpectNearRel(got.jain, want.jain, kRewardRelTol, want.name + " jain");
    }
  }
}

// Off-by-default contract of the real-world link corpus (iid wire loss on
// LinkSpec, RED/CoDel AQM, ECN marking, wifi jitter): compiled into the engine
// but disabled, the new code must not perturb the packet stream at all. Two
// guards carry this. EnginesReproduceCommittedEpisodes above already runs with
// the corpus compiled in and pins the committed file (exact packet counts,
// documented ULP tolerances on the FMA-contraction-sensitive floats — the
// committed bytes carry one toolchain's codegen, so a literal byte compare
// would fail on every MOCC_NATIVE_ARCH=OFF CI leg for reasons unrelated to
// the corpus). The test below adds the strict byte-level form WITHIN one
// binary, where codegen is held fixed and any stray Rng draw, branch or event
// reordering from a disabled spec is the only thing that can flip a byte:
// explicitly constructing DISABLED AQM/jitter specs (droptail kind with ECN
// and RED thresholds set; a jitter spec with zero period but non-default
// slowdown and randomize_phase) must be byte-indistinguishable from never
// touching the specs at all — the empty() gates, not the field defaults, are
// what keep the stream untouched.
TEST(GoldenEpisodeTest, ExplicitlyDisabledRealWorldSpecsAreByteInvisible) {
  auto capture = [](bool decorate) {
    MultiFlowCcEnvConfig config;
    config.num_agents = 4;
    LinkParams link;
    link.bandwidth_bps = 4e6;
    link.one_way_delay_s = 0.020;
    link.queue_capacity_pkts = 300;
    config.fixed_link = link;
    config.agent_stagger_s = 1.0;
    config.max_steps_per_episode = 150;
    if (decorate) {
      config.aqm.kind = AqmKind::kDroptail;  // empty() => disabled
      config.aqm.ecn = true;
      config.aqm.red_min_pkts = 1.0;
      config.aqm.red_max_pkts = 2.0;
      config.wifi_jitter.burst_period_s = 0.0;  // empty() => disabled
      config.wifi_jitter.burst_duration_s = 5.0;
      config.wifi_jitter.service_slowdown = 9.0;
      config.wifi_jitter.randomize_phase = true;
    }
    MultiFlowCcEnv env(config, /*seed=*/3131);
    env.SetObjective(WeightVector(0.4, 0.4, 0.2));
    env.Reset();
    EpisodeGold gold;
    gold.name = "disabled_specs";
    gold.reward_sums.assign(4, 0.0);
    std::vector<double> actions(4, 0.0);
    int steps = 0;
    for (bool done = false; !done; ++steps) {
      for (int i = 0; i < 4; ++i) {
        actions[static_cast<size_t>(i)] = GoldenAction(steps, i);
      }
      VectorStepResult r = env.Step(actions);
      for (int i = 0; i < 4; ++i) {
        gold.reward_sums[static_cast<size_t>(i)] += r.rewards[static_cast<size_t>(i)];
      }
      done = r.done;
    }
    const std::vector<double> throughputs =
        env.AgentAvgThroughputsBps(0.0, env.now_s());
    for (int i = 0; i < 4; ++i) {
      FlowGold g;
      g.thr_early_bps = throughputs[static_cast<size_t>(i)];
      g.sent = steps;
      gold.flows.push_back(g);
    }
    gold.jain = env.JainIndex(env.now_s() / 2, env.now_s());
    return std::vector<EpisodeGold>{gold};
  };
  const std::string plain_path = ::testing::TempDir() + "/golden_disabled_plain.txt";
  const std::string decorated_path =
      ::testing::TempDir() + "/golden_disabled_decorated.txt";
  ASSERT_TRUE(WriteGoldens(plain_path, capture(false)));
  ASSERT_TRUE(WriteGoldens(decorated_path, capture(true)));
  auto slurp = [](const std::string& path) {
    std::string bytes;
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f != nullptr) {
      char buf[4096];
      size_t n = 0;
      while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
        bytes.append(buf, n);
      }
      std::fclose(f);
    }
    return bytes;
  };
  const std::string plain = slurp(plain_path);
  ASSERT_FALSE(plain.empty());
  EXPECT_EQ(slurp(decorated_path), plain)
      << "disabled-but-explicitly-constructed AQM/jitter specs must not perturb "
         "the episode stream";
}

// Same binary, same seeds: two captures must agree to the bit — the event engine
// has no run-to-run nondeterminism (unordered containers, address-dependent
// ordering, uninitialised reads would all show up here).
TEST(GoldenEpisodeTest, CaptureIsBitDeterministicWithinBinary) {
  const std::vector<EpisodeGold> a = CaptureAll();
  const std::vector<EpisodeGold> b = CaptureAll();
  ASSERT_EQ(a.size(), b.size());
  for (size_t e = 0; e < a.size(); ++e) {
    ASSERT_EQ(a[e].flows.size(), b[e].flows.size());
    for (size_t i = 0; i < a[e].flows.size(); ++i) {
      EXPECT_EQ(a[e].flows[i].sent, b[e].flows[i].sent);
      EXPECT_EQ(a[e].flows[i].acked, b[e].flows[i].acked);
      EXPECT_EQ(a[e].flows[i].lost, b[e].flows[i].lost);
      EXPECT_EQ(std::memcmp(&a[e].flows[i].min_rtt_s, &b[e].flows[i].min_rtt_s,
                            sizeof(double)),
                0);
      EXPECT_EQ(std::memcmp(&a[e].flows[i].thr_late_bps, &b[e].flows[i].thr_late_bps,
                            sizeof(double)),
                0);
    }
    for (size_t i = 0; i < a[e].reward_sums.size(); ++i) {
      EXPECT_EQ(std::memcmp(&a[e].reward_sums[i], &b[e].reward_sums[i], sizeof(double)),
                0);
    }
  }
}

}  // namespace
}  // namespace mocc
