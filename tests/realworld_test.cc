// Real-world link corpus behavioral gates (`ctest -L realworld`).
//
// Every scenario of the corpus — iid wire loss, RED/ECN and CoDel bottlenecks,
// wifi-style service jitter, app-limited RTC/video cross traffic — is gated by
// a TRAINED model deployed against it, in the style of the integration suite:
// small-budget offline training in SetUpTestSuite, behavioural assertions as
// medians over 3 seeded runs. The suite also pins the determinism contract of
// the new stochastic link models (same seed -> bit-identical episodes, serial
// vs pooled rollout collection bit-identical) so the corpus is usable for
// training, not just evaluation.
//
// The ECN gate trains a matched pair of models — one with the ECN observation
// channel (MoccConfig::ecn_signal), one blind, same seed and budget — and
// requires the marking signal to demonstrably improve the queue-delay/
// throughput tradeoff. The pair trains and deploys on a jitter-corrupted
// RED/ECN link: on a clean static link the delay signal alone already pins
// the queue, so marks are redundant and the twins differ only by training
// noise (which direction flips with compiler codegen); under wifi-style
// service bursts the RTT samples are noisy while RED's slow-EWMA marks still
// cleanly flag a standing queue, so the channel carries information the blind
// twin structurally cannot recover.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/offline_trainer.h"
#include "src/core/policy_spec.h"
#include "src/envs/multi_flow_cc_env.h"
#include "src/envs/scenario.h"
#include "src/netsim/packet_network.h"
#include "src/netsim/topology.h"
#include "src/rl/ppo.h"

namespace mocc {
namespace {

const Scenario& FindScenario(const std::string& name) {
  const Scenario* scenario = ScenarioRegistry::Global().Find(name);
  EXPECT_NE(scenario, nullptr) << name;
  return *scenario;
}

// The 12 Mbps / 40 ms RTT / 1% iid wire loss link of the lossy-link and
// lossy-vs-cubic scenarios, restated for the raw-PacketNetwork comparisons.
LinkParams LossyLink() {
  LinkParams link;
  link.bandwidth_bps = 12e6;
  link.one_way_delay_s = 0.020;
  link.queue_capacity_pkts = 500;
  link.random_loss_rate = 0.01;
  return link;
}

double Median3(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[1];
}

class RealWorldTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // The generic corpus model: the integration suite's budget, trained on the
    // default single-flow sampled-link regime (no ECN channel).
    {
      OfflineTrainConfig config;
      config.seed = 7;
      config.bootstrap_iterations = 60;
      config.traversal_rounds = 2;
      Rng rng(config.seed);
      model_ = std::make_shared<PreferenceActorCritic>(config.mocc, &rng);
      OfflineTrainer trainer(model_.get(), config);
      trainer.TrainTwoPhase();
    }
    // The matched ECN pair: identical seed/budget/scenario, differing ONLY in
    // the observation channel — the controlled comparison the red-ecn gate
    // needs to attribute any tradeoff difference to the marking signal.
    ecn_model_ = TrainOnRedEcn(/*ecn_signal=*/true);
    blind_model_ = TrainOnRedEcn(/*ecn_signal=*/false);
  }

  static void TearDownTestSuite() {
    model_.reset();
    ecn_model_.reset();
    blind_model_.reset();
  }

  // The catalog red-ecn bottleneck with the wifi-jitter service model layered
  // on: the delay channel is corrupted by 3x service bursts while RED's EWMA
  // marking still reflects the standing queue — the setting where the ECN
  // observation channel is informative rather than redundant.
  static Scenario JitteryRedEcn() {
    Scenario s = FindScenario("red-ecn");
    s.name = "red-ecn-jitter";
    s.wifi_jitter.burst_period_s = 0.5;
    s.wifi_jitter.burst_duration_s = 0.1;
    s.wifi_jitter.service_slowdown = 3.0;
    s.wifi_jitter.randomize_phase = true;
    return s;
  }

  static std::shared_ptr<PreferenceActorCritic> TrainOnRedEcn(bool ecn_signal) {
    OfflineTrainConfig config;
    config.seed = 7;
    config.bootstrap_iterations = 60;
    config.traversal_rounds = 2;
    config.mocc.ecn_signal = ecn_signal;
    config.scenarios = {JitteryRedEcn()};
    Rng rng(config.seed);
    auto model = std::make_shared<PreferenceActorCritic>(config.mocc, &rng);
    OfflineTrainer trainer(model.get(), config);
    trainer.TrainTwoPhase();
    return model;
  }

  struct ScenarioRunStats {
    // Agent 0's mean delivered throughput over the measured window, as a
    // fraction of the (fixed) link bandwidth.
    double utilization = 0.0;
    double bandwidth_bps = 0.0;  // the episode's (fixed or sampled) bottleneck
    // Mean over measured MIs of agent 0's standing queue delay
    // (avg RTT minus the propagation-only base RTT).
    double mean_queueing_s = 0.0;
    double max_ecn_rate = 0.0;
    std::vector<double> agent_throughputs_bps;
  };

  // Deploys `model` against the scenario's environment, driving every agent
  // with the deterministic policy mean, and measures steady state over
  // [measure_from_s, duration_s).
  static ScenarioRunStats DriveScenario(const Scenario& scenario,
                                        const std::shared_ptr<PreferenceActorCritic>& model,
                                        const WeightVector& w, double duration_s,
                                        double measure_from_s, uint64_t seed) {
    CcEnvConfig base = model->config().MakeEnvConfig();
    base.max_steps_per_episode = 1 << 20;  // run by wall clock, not step count
    std::unique_ptr<MultiFlowCcEnv> env = scenario.MakeMultiFlowEnv(base, seed);
    env->SetObjective(w);
    std::vector<std::vector<double>> obs = env->Reset();
    const int n = env->NumAgents();
    std::vector<double> actions(static_cast<size_t>(n), 0.0);
    ScenarioRunStats stats;
    double queue_sum = 0.0;
    int queue_count = 0;
    while (env->now_s() < duration_s) {
      for (int i = 0; i < n; ++i) {
        actions[static_cast<size_t>(i)] = model->ActionMean(obs[static_cast<size_t>(i)]);
      }
      VectorStepResult r = env->Step(actions);
      obs = std::move(r.observations);
      if (env->now_s() >= measure_from_s) {
        const MonitorReport& report = env->agent_last_report(0);
        if (report.avg_rtt_s > 0.0) {
          queue_sum += std::max(0.0, report.avg_rtt_s - env->AgentBaseRttS(0));
          ++queue_count;
        }
        stats.max_ecn_rate = std::max(stats.max_ecn_rate, report.ecn_rate);
      }
    }
    stats.agent_throughputs_bps = env->AgentAvgThroughputsBps(measure_from_s, duration_s);
    stats.bandwidth_bps = env->current_link().bandwidth_bps;
    stats.utilization = stats.agent_throughputs_bps[0] / stats.bandwidth_bps;
    stats.mean_queueing_s = queue_count > 0 ? queue_sum / queue_count : 0.0;
    return stats;
  }

  static std::shared_ptr<PreferenceActorCritic> model_;
  static std::shared_ptr<PreferenceActorCritic> ecn_model_;
  static std::shared_ptr<PreferenceActorCritic> blind_model_;
};

std::shared_ptr<PreferenceActorCritic> RealWorldTest::model_;
std::shared_ptr<PreferenceActorCritic> RealWorldTest::ecn_model_;
std::shared_ptr<PreferenceActorCritic> RealWorldTest::blind_model_;

// --- Catalog wiring ---------------------------------------------------------

TEST_F(RealWorldTest, CatalogEntriesExistAndRoutePacketLevel) {
  for (const char* name :
       {"lossy-link", "red-ecn", "codel", "wifi-jitter", "wifi-jitter-compete",
        "rtc-compete", "video-compete", "lossy-vs-cubic"}) {
    const Scenario* scenario = ScenarioRegistry::Global().Find(name);
    ASSERT_NE(scenario, nullptr) << name;
    // Every corpus scenario needs the packet-level environment: the fluid link
    // has no queue to manage, no wire loss and no packets to mark.
    EXPECT_TRUE(scenario->IsMultiFlow()) << name;
  }
  EXPECT_EQ(FindScenario("lossy-link").fixed_link->random_loss_rate, 0.01);
  EXPECT_TRUE(FindScenario("red-ecn").aqm.ecn);
  EXPECT_EQ(FindScenario("red-ecn").aqm.kind, AqmKind::kRed);
  EXPECT_EQ(FindScenario("codel").aqm.kind, AqmKind::kCodel);
  EXPECT_FALSE(FindScenario("wifi-jitter").wifi_jitter.empty());
  EXPECT_TRUE(FindScenario("wifi-jitter").wifi_jitter.randomize_phase);
  // The media sources registered as competitor schemes must resolve.
  EXPECT_NE(MakeBaselineCc("rtc"), nullptr);
  EXPECT_NE(MakeBaselineCc("video"), nullptr);
}

// --- lossy-link: wire loss is not congestion --------------------------------

TEST_F(RealWorldTest, LossyLinkPolicySustainsThroughputWhereCubicCollapses) {
  // The paper's wifi story: at 1% iid wire loss, a loss-based scheme's
  // 1.22*MSS/(RTT*sqrt(p)) ceiling is ~30% of this 12 Mbps pipe, while the
  // trained policy must keep >= 70% utilization (medians over 3 seeds).
  const LinkParams link = LossyLink();
  auto run = [&](uint64_t seed, bool cubic) {
    PacketNetwork net(link, seed);
    const int flow = cubic
                         ? net.AddFlow(MakeBaselineCc("cubic"))
                         : net.AddFlow(
                               PolicySpec().WithModel(model_).MakeController(
                                   ThroughputObjective()));
    net.Run(40.0);
    return net.record(flow).AvgThroughputBps(20.0, 40.0) / link.bandwidth_bps;
  };
  const double mocc = Median3({run(11, false), run(13, false), run(17, false)});
  const double cubic = Median3({run(11, true), run(13, true), run(17, true)});
  std::cout << "[ lossy-link ] median utilization: mocc " << mocc << ", cubic "
            << cubic << "\n";
  EXPECT_GE(mocc, 0.70) << "trained policy must shrug off 1% non-congestion loss";
  EXPECT_LE(cubic, 0.45) << "the link must actually collapse loss-based CC";
  EXPECT_GT(mocc, cubic + 0.2);
}

TEST_F(RealWorldTest, LossyLinkScenarioEnvSustainsUtilization) {
  // Same behaviour through the catalog plumbing (scenario -> MultiFlowCcEnv
  // with packet_level routing) instead of a hand-built network.
  const Scenario& scenario = FindScenario("lossy-link");
  auto run = [&](uint64_t seed) {
    return DriveScenario(scenario, model_, ThroughputObjective(), 40.0, 20.0, seed)
        .utilization;
  };
  const double median = Median3({run(11), run(13), run(17)});
  std::cout << "[ lossy-link ] median scenario-env utilization: " << median << "\n";
  EXPECT_GE(median, 0.65);
}

// --- red-ecn: marks reach the observation and improve the tradeoff ----------

TEST_F(RealWorldTest, RedEcnMarksReachObservationChannel) {
  const Scenario& scenario = FindScenario("red-ecn");
  // The ECN-trained model's env config carries include_ecn_in_obs, so each
  // history entry is 4 wide; the blind model keeps the historical 3-wide rows.
  CcEnvConfig ecn_base = ecn_model_->config().MakeEnvConfig();
  ecn_base.max_steps_per_episode = 1 << 20;
  CcEnvConfig blind_base = blind_model_->config().MakeEnvConfig();
  auto ecn_env = scenario.MakeMultiFlowEnv(ecn_base, 11);
  auto blind_env = scenario.MakeMultiFlowEnv(blind_base, 11);
  EXPECT_EQ(ecn_env->ObservationDim(), 3 + 4 * ecn_base.history_len);
  EXPECT_EQ(blind_env->ObservationDim(), 3 + 3 * blind_base.history_len);

  // Overdrive the RED band with a fixed gentle ramp: the EWMA queue must cross
  // red_min_pkts and the resulting marks must surface in the newest history
  // entry's 4th component (and nowhere else can make it non-zero).
  ecn_env->SetObjective(ThroughputObjective());
  std::vector<std::vector<double>> obs = ecn_env->Reset();
  double max_obs_ecn = 0.0;
  double max_report_ecn = 0.0;
  while (ecn_env->now_s() < 30.0) {
    VectorStepResult r = ecn_env->Step({0.05});
    obs = std::move(r.observations);
    const size_t newest_ecn = obs[0].size() - 1;
    max_obs_ecn = std::max(max_obs_ecn, obs[0][newest_ecn]);
    max_report_ecn = std::max(max_report_ecn, ecn_env->agent_last_report(0).ecn_rate);
  }
  std::cout << "[ red-ecn ] max MI mark fraction: report " << max_report_ecn
            << ", observation " << max_obs_ecn << "\n";
  EXPECT_GT(max_report_ecn, 0.0) << "RED must mark the overdriving ECN-capable flow";
  EXPECT_GT(max_obs_ecn, 0.0) << "marks must reach the observation's ECN channel";
  EXPECT_LE(max_obs_ecn, 1.0);
}

TEST_F(RealWorldTest, EcnSignalImprovesQueueDelayThroughputTradeoff) {
  // The controlled pair (same seed/budget/scenario, only the observation
  // channel differs) deployed on the jittery RED/ECN link it trained on, plus
  // the blind model on the same jittery link WITHOUT AQM (droptail): the
  // ECN-aware policy must keep the standing queue below the droptail run's,
  // below its blind twin's, and beat the blind policy on the queue-delay/
  // throughput tradeoff (utilization per unit of queueing).
  const Scenario red_ecn = JitteryRedEcn();
  Scenario droptail = red_ecn;  // same jittery link, AQM off, still packet-level
  droptail.aqm = AqmSpec{};
  droptail.packet_level = true;

  auto run = [&](const Scenario& s, const std::shared_ptr<PreferenceActorCritic>& m,
                 uint64_t seed) {
    return DriveScenario(s, m, ThroughputObjective(), 60.0, 20.0, seed);
  };
  std::vector<double> aware_q, aware_u, blind_q, blind_u, droptail_q;
  double aware_marks = 0.0;
  for (uint64_t seed : {11u, 13u, 17u}) {
    const ScenarioRunStats aware = run(red_ecn, ecn_model_, seed);
    const ScenarioRunStats blind = run(red_ecn, blind_model_, seed);
    const ScenarioRunStats plain = run(droptail, blind_model_, seed);
    aware_q.push_back(aware.mean_queueing_s);
    aware_u.push_back(aware.utilization);
    blind_q.push_back(blind.mean_queueing_s);
    blind_u.push_back(blind.utilization);
    droptail_q.push_back(plain.mean_queueing_s);
    aware_marks = std::max(aware_marks, aware.max_ecn_rate);
    std::cout << "[ red-ecn ] seed " << seed << ": aware " << aware.utilization
              << " util @ " << aware.mean_queueing_s * 1e3 << " ms (marks "
              << aware.max_ecn_rate << "), blind " << blind.utilization
              << " util @ " << blind.mean_queueing_s * 1e3 << " ms, droptail "
              << plain.utilization << " util @ " << plain.mean_queueing_s * 1e3
              << " ms\n";
  }
  EXPECT_GT(aware_marks, 0.0)
      << "RED must actually mark the aware policy's traffic — otherwise the "
         "gate is comparing identical droptail runs";
  const double aware_queue = Median3(aware_q);
  const double aware_util = Median3(aware_u);
  const double blind_queue = Median3(blind_q);
  const double blind_util = Median3(blind_u);
  // The aware policy must hold the queue inside RED's band regime: the band
  // tops out at 40 pkts (~160 ms at this link's nominal 250 pkt/s), against a
  // droptail horizon of 500 pkts (~2 s). The droptail leg is NOT a controlled
  // comparison (different model AND different queue discipline — whether the
  // blind twin loses queue control without RED's forced-drop backstop is
  // training luck), so it only bounds the aware run loosely; the controlled
  // aware-vs-blind claims below are strict.
  EXPECT_LT(aware_queue, 0.200)
      << "the aware policy must keep the standing queue inside RED's band";
  EXPECT_LT(aware_queue, 1.25 * Median3(droptail_q))
      << "RED-ECN must not stand meaningfully more queue than the droptail "
         "baseline";
  EXPECT_LT(aware_queue, blind_queue)
      << "the aware policy must hold a shorter standing queue than its blind "
         "twin at matched utilization (learned mark-avoidance)";
  EXPECT_GE(aware_util, 0.5) << "the aware policy must still carry real traffic";
  // Tradeoff score: utilization discounted by queueing relative to the base
  // RTT (40 ms) — the scale on which Eq. 2's latency term operates here.
  const double aware_score = aware_util / (1.0 + aware_queue / 0.040);
  const double blind_score = blind_util / (1.0 + blind_queue / 0.040);
  std::cout << "[ red-ecn ] tradeoff score: aware " << aware_score << ", blind "
            << blind_score << "\n";
  EXPECT_GT(aware_score, blind_score)
      << "the ECN observation channel must improve the queue-delay/throughput "
         "tradeoff over the ECN-blind twin";
}

// --- codel: sojourn control beats droptail queueing -------------------------

TEST_F(RealWorldTest, CodelBoundsOverdrivenStandingQueueBelowDroptail) {
  // The AQM-vs-droptail contrast needs a sender that does NOT self-regulate:
  // a trained policy already holds its standing queue below CoDel's coercion
  // regime, so deploying it on both queues measures the policy, not the AQM.
  // A fixed-rate source overdriving the 3 Mbps link at 1.5x makes the contrast
  // structural — droptail fills the 500-packet buffer (a ~2 s standing queue)
  // while CoDel's control law sheds the excess and pins sojourn near target.
  auto run = [](bool use_codel, uint64_t seed) {
    LinkParams link;
    link.bandwidth_bps = 3e6;
    link.one_way_delay_s = 0.020;
    link.queue_capacity_pkts = 500;
    NetworkTopology topo = NetworkTopology::SingleBottleneck(link);
    if (use_codel) topo.links[0].aqm.kind = AqmKind::kCodel;
    PacketNetwork net(topo, seed);
    const int flow =
        net.AddFlow(std::make_unique<ExternalRateCc>(1.5 * link.bandwidth_bps));
    net.Run(40.0);
    double sum = 0.0;
    int count = 0;
    for (const MiSample& s : net.record(flow).mi_samples()) {
      if (s.time_s < 20.0 || s.avg_rtt_s <= 0.0) continue;
      sum += std::max(0.0, s.avg_rtt_s - link.BaseRttS());
      ++count;
    }
    return count > 0 ? sum / count : 0.0;
  };
  const double codel_queue = Median3({run(true, 11), run(true, 13), run(true, 17)});
  const double droptail_queue =
      Median3({run(false, 11), run(false, 13), run(false, 17)});
  std::cout << "[ codel ] overdriven-sender median queueing: codel "
            << codel_queue * 1e3 << " ms, droptail " << droptail_queue * 1e3
            << " ms\n";
  EXPECT_LT(codel_queue, 0.150)
      << "CoDel must pin an unresponsive flow's sojourn near its target regime";
  EXPECT_GT(droptail_queue, 0.5)
      << "the droptail buffer must actually stand (bufferbloat baseline)";
  EXPECT_LT(codel_queue, droptail_queue / 4.0);

  // The trained policy, for its part, must coexist with CoDel's dropping:
  // sustained utilization with the standing queue inside the same bounded
  // regime (it trained on random-loss links, so CoDel drops don't spook it).
  const Scenario& codel = FindScenario("codel");
  std::vector<double> util, queue;
  for (uint64_t seed : {11u, 13u, 17u}) {
    const ScenarioRunStats c =
        DriveScenario(codel, model_, ThroughputObjective(), 40.0, 15.0, seed);
    util.push_back(c.utilization);
    queue.push_back(c.mean_queueing_s);
  }
  std::cout << "[ codel ] trained model: median utilization " << Median3(util)
            << " @ " << Median3(queue) * 1e3 << " ms queueing\n";
  EXPECT_GE(Median3(util), 0.6);
  EXPECT_LT(Median3(queue), 0.150);
}

// --- wifi-jitter: bursty service degradation --------------------------------

TEST_F(RealWorldTest, WifiJitterPolicySustainsUtilization) {
  // Service 3x slower for 100 ms out of every 500 ms: average capacity is
  // ~87% of nominal. The trained policy must keep at least half the nominal
  // bandwidth flowing despite the bursts.
  const Scenario& scenario = FindScenario("wifi-jitter");
  auto run = [&](uint64_t seed) {
    return DriveScenario(scenario, model_, ThroughputObjective(), 40.0, 15.0, seed)
        .utilization;
  };
  const double median = Median3({run(21), run(23), run(27)});
  std::cout << "[ wifi-jitter ] median utilization: " << median << "\n";
  EXPECT_GE(median, 0.5);
}

// --- contention scenarios: nobody starves -----------------------------------

TEST_F(RealWorldTest, ContentionScenariosKeepEveryAgentCarryingTraffic) {
  // wifi-jitter-compete / rtc-compete / video-compete / lossy-vs-cubic: two
  // trained agents plus cross traffic. The gate is no-starvation — every agent
  // must hold a meaningful share of the bottleneck despite jitter, media
  // burstiness or a loss-collapsed competitor.
  for (const char* name : {"wifi-jitter-compete", "rtc-compete", "video-compete",
                           "lossy-vs-cubic"}) {
    SCOPED_TRACE(name);
    const Scenario& scenario = FindScenario(name);
    const ScenarioRunStats stats =
        DriveScenario(scenario, model_, BalancedObjective(), 60.0, 25.0, 31);
    ASSERT_EQ(stats.agent_throughputs_bps.size(), 2u);
    const double bandwidth = stats.bandwidth_bps;  // fixed or episode-sampled
    double total = 0.0;
    for (double throughput : stats.agent_throughputs_bps) {
      EXPECT_GT(throughput, 0.03 * bandwidth) << name << ": starved agent";
      total += throughput;
    }
    std::cout << "[ " << name << " ] agents carry " << total / bandwidth
              << " of the bottleneck\n";
    // The ABR client downloads at 4x its chosen bitrate while its buffer has
    // room, so until it fills it is the most aggressive flow on the link —
    // balanced-objective agents rightly yield to the queue it builds. The gate
    // there is strictly no-starvation; elsewhere the agents must also hold a
    // real aggregate share.
    const double floor = std::string(name) == "video-compete" ? 0.10 : 0.25;
    EXPECT_GT(total, floor * bandwidth) << name << ": agents must use the pipe";
  }
}

// --- app-limited media sources ----------------------------------------------

TEST_F(RealWorldTest, RtcSourceIsAppLimitedAndDelayAdaptive) {
  // Alone on a fat link the RTC encoder must ramp to its cap and stay there —
  // app-limited, not pipe-filling.
  LinkParams fat;
  fat.bandwidth_bps = 50e6;
  fat.one_way_delay_s = 0.010;
  fat.queue_capacity_pkts = 500;
  PacketNetwork net(fat, 5);
  const int flow = net.AddFlow(MakeBaselineCc("rtc"));
  net.Run(30.0);
  const double rate = net.record(flow).AvgThroughputBps(10.0, 30.0);
  std::cout << "[ rtc ] steady rate on a 50 Mbps link: " << rate / 1e6 << " Mbps\n";
  EXPECT_LT(rate, 2.8e6) << "RTC source must stay app-limited at its encoder cap";
  EXPECT_GT(rate, 1.5e6) << "RTC source must ramp toward its cap when unconstrained";

  // On a congested narrow link it must back off instead of standing on the queue.
  LinkParams thin;
  thin.bandwidth_bps = 1.5e6;
  thin.one_way_delay_s = 0.020;
  thin.queue_capacity_pkts = 400;
  PacketNetwork congested(thin, 7);
  const int thin_flow = congested.AddFlow(MakeBaselineCc("rtc"));
  congested.Run(30.0);
  const FlowRecord& rec = congested.record(thin_flow);
  const double thin_rate = rec.AvgThroughputBps(10.0, 30.0);
  std::cout << "[ rtc ] rate on a 1.5 Mbps link: " << thin_rate / 1e6
            << " Mbps, avg RTT " << rec.AvgRttS() * 1e3 << " ms\n";
  EXPECT_LT(thin_rate, 1.6e6);
  EXPECT_GT(thin_rate, 0.1e6);
  // Delay-adaptive: the standing queue must stay far from the 400-packet
  // droptail horizon (~3.2 s at 1.5 Mbps).
  EXPECT_LT(rec.AvgRttS(), 0.5);
}

TEST_F(RealWorldTest, VideoSourceIdlesOnFullBufferAndStaysAppLimited) {
  // A 20 Mbps link fits the top ladder rung (4.3 Mbps at 2x download speed):
  // the client must fill its buffer, then idle — long-run average well below
  // the pipe, i.e. genuinely bursty on/off cross traffic.
  LinkParams link;
  link.bandwidth_bps = 20e6;
  link.one_way_delay_s = 0.015;
  link.queue_capacity_pkts = 500;
  PacketNetwork net(link, 9);
  const int flow = net.AddFlow(MakeBaselineCc("video"));
  net.Run(90.0);
  const double rate = net.record(flow).AvgThroughputBps(45.0, 90.0);
  std::cout << "[ video ] long-run rate on a 20 Mbps link: " << rate / 1e6
            << " Mbps\n";
  EXPECT_LT(rate, 0.5 * link.bandwidth_bps) << "ABR client must not fill the pipe";
  EXPECT_GT(rate, 1e6) << "ABR client must sustain real traffic";
}

// --- determinism of the stochastic link models ------------------------------

// Deterministic closed-form action schedule (integer arithmetic only), so runs
// differ only through the environment's own randomness.
double ScheduleAction(int step, int agent) {
  return static_cast<double>((step * 7 + agent * 13) % 11 - 5) * 0.04;
}

TEST_F(RealWorldTest, StochasticLinkModelsAreSeedReproducible) {
  // Same seed -> bit-identical rewards and throughputs; different seed ->
  // different realisation (loss draws, RED draws, jitter phase).
  for (const char* name : {"lossy-link", "red-ecn", "wifi-jitter"}) {
    SCOPED_TRACE(name);
    const Scenario& scenario = FindScenario(name);
    auto run = [&](uint64_t seed) {
      CcEnvConfig base = MoccConfig{}.MakeEnvConfig();
      auto env = scenario.MakeMultiFlowEnv(base, seed);
      env->SetObjective(BalancedObjective());
      env->Reset();
      std::vector<double> rewards;
      for (int step = 0; step < 200; ++step) {
        VectorStepResult r = env->Step({ScheduleAction(step, 0)});
        rewards.push_back(r.rewards[0]);
      }
      rewards.push_back(env->AgentAvgThroughputsBps(0.0, env->now_s())[0]);
      return rewards;
    };
    const std::vector<double> a = run(91);
    const std::vector<double> b = run(91);
    const std::vector<double> c = run(92);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i], b[i]) << name << " step " << i
                            << ": same seed must be bit-identical";
    }
    EXPECT_NE(a, c) << name << ": a different seed must change the realisation";
  }
}

TEST_F(RealWorldTest, CollectionSerialVsPoolBitIdenticalOnRealWorldScenarios) {
  // The robustness suite's serial-vs-pool contract, extended to the corpus:
  // pooled rollout collection over the lossy/AQM/jitter scenarios must be
  // bit-identical to serial collection (the corpus is a training surface).
  auto collect = [](bool parallel) {
    MoccConfig mocc;
    Rng rng(31);
    PreferenceActorCritic model(mocc, &rng);
    PpoTrainer trainer(&model, mocc.MakePpoConfig(33));
    trainer.set_parallel_collection(parallel);

    std::string error;
    const auto scenarios = ScenarioRegistry::Global().ResolveList(
        "lossy-link,red-ecn,wifi-jitter", &error);
    EXPECT_TRUE(scenarios.has_value()) << error;
    std::vector<std::unique_ptr<MultiFlowCcEnv>> envs;
    std::vector<PpoTrainer::RolloutSource> sources;
    uint64_t seed = 500;
    for (const Scenario& scenario : *scenarios) {
      envs.push_back(scenario.MakeMultiFlowEnv(MoccConfig{}.MakeEnvConfig(), seed++));
      envs.back()->SetObjective(BalancedObjective());
      PpoTrainer::RolloutSource source;
      source.vec = envs.back().get();
      sources.push_back(source);
    }
    return trainer.CollectSourcesParallel(sources, 48);
  };
  const auto pool = collect(true);
  const auto serial = collect(false);
  ASSERT_EQ(pool.size(), serial.size());
  ASSERT_EQ(pool.size(), 3u);  // 3 single-agent scenarios
  for (size_t b = 0; b < pool.size(); ++b) {
    ASSERT_EQ(pool[b].size(), serial[b].size());
    for (size_t i = 0; i < pool[b].size(); ++i) {
      ASSERT_EQ(pool[b].transitions[i].action, serial[b].transitions[i].action);
      ASSERT_EQ(pool[b].transitions[i].reward, serial[b].transitions[i].reward);
      ASSERT_EQ(pool[b].advantages[i], serial[b].advantages[i]);
      ASSERT_EQ(pool[b].returns[i], serial[b].returns[i]);
    }
  }
}

}  // namespace
}  // namespace mocc
