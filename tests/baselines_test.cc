// Tests for the comparison congestion-control schemes: Table-1 utility functions,
// per-scheme control-law behaviour, and an integration sweep verifying every scheme
// achieves reasonable utilization on a clean link in the packet simulator.
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "src/baselines/allegro.h"
#include "src/baselines/aurora.h"
#include "src/baselines/bbr.h"
#include "src/baselines/copa.h"
#include "src/baselines/cubic.h"
#include "src/baselines/orca.h"
#include "src/baselines/rl_cc.h"
#include "src/baselines/utility_functions.h"
#include "src/baselines/vegas.h"
#include "src/baselines/vivace.h"
#include "src/envs/mi_history.h"
#include "src/netsim/packet_network.h"

namespace mocc {
namespace {

AckInfo MakeAck(double time_s, double rtt_s, int64_t seq = 0) {
  AckInfo ack;
  ack.ack_time_s = time_s;
  ack.send_time_s = time_s - rtt_s;
  ack.rtt_s = rtt_s;
  ack.size_bits = kDefaultPacketSizeBits;
  ack.seq = seq;
  return ack;
}

MonitorReport MakeMi(double thr_bps, double rtt_s, double loss, double dur = 0.05,
                     double send_bps = 0.0) {
  MonitorReport r;
  r.duration_s = dur;
  r.throughput_bps = thr_bps;
  r.send_rate_bps = send_bps > 0.0 ? send_bps : thr_bps;
  r.packets_acked = static_cast<int64_t>(thr_bps * dur / 12000.0);
  r.packets_sent = static_cast<int64_t>(r.send_rate_bps * dur / 12000.0);
  r.avg_rtt_s = rtt_s;
  r.min_rtt_s = rtt_s;
  r.loss_rate = loss;
  return r;
}

// --- Table 1 utility functions -------------------------------------------------------

TEST(UtilityTest, AllegroRewardsThroughputWithoutLoss) {
  EXPECT_GT(AllegroUtility(10.0, 0.0), AllegroUtility(5.0, 0.0));
}

TEST(UtilityTest, AllegroSigmoidCutsAboveFivePercentLoss) {
  // Below the 5% knee utility is positive; well above it becomes negative.
  EXPECT_GT(AllegroUtility(10.0, 0.01), 0.0);
  EXPECT_LT(AllegroUtility(10.0, 0.15), 0.0);
}

TEST(UtilityTest, VivacePenalizesRttGradientAndLoss) {
  const double base = VivaceUtility(10.0, 0.0, 0.0);
  EXPECT_LT(VivaceUtility(10.0, 0.5, 0.0), base);
  EXPECT_LT(VivaceUtility(10.0, 0.0, 0.1), base);
  // Negative RTT gradient (draining queue) is not rewarded beyond zero.
  EXPECT_DOUBLE_EQ(VivaceUtility(10.0, -0.5, 0.0), base);
}

TEST(UtilityTest, VivaceConcaveInRate) {
  // x^0.9: marginal utility decreases.
  const double d1 = VivaceUtility(2.0, 0, 0) - VivaceUtility(1.0, 0, 0);
  const double d2 = VivaceUtility(11.0, 0, 0) - VivaceUtility(10.0, 0, 0);
  EXPECT_GT(d1, d2);
}

TEST(UtilityTest, AuroraLinearForm) {
  EXPECT_DOUBLE_EQ(AuroraReward(100.0, 0.05, 0.1), 10.0 * 100 - 1000 * 0.05 - 2000 * 0.1);
}

TEST(UtilityTest, OrcaPowerNormalization) {
  // Full utilization at base RTT, no loss -> 1.0.
  EXPECT_NEAR(OrcaReward(10e6, 0.04, 0.0, 10e6, 0.04), 1.0, 1e-12);
  EXPECT_LT(OrcaReward(10e6, 0.08, 0.0, 10e6, 0.04), 1.0);
  EXPECT_LT(OrcaReward(10e6, 0.04, 0.1, 10e6, 0.04), 1.0);
}

// --- CUBIC ---------------------------------------------------------------------------

TEST(CubicTest, SlowStartDoublesPerRtt) {
  CubicCc cubic;
  const double w0 = cubic.CwndPackets();
  EXPECT_TRUE(cubic.in_slow_start());
  for (int i = 0; i < static_cast<int>(w0); ++i) {
    cubic.OnAck(MakeAck(1.0 + i * 0.001, 0.04));
  }
  EXPECT_NEAR(cubic.CwndPackets(), 2 * w0, 1.0);
}

TEST(CubicTest, LossMultiplicativeDecreaseByBeta) {
  CubicCc cubic;
  for (int i = 0; i < 100; ++i) {
    cubic.OnAck(MakeAck(1.0 + i * 0.001, 0.04));
  }
  const double before = cubic.CwndPackets();
  LossInfo loss;
  loss.detect_time_s = 2.0;
  cubic.OnPacketLost(loss);
  EXPECT_NEAR(cubic.CwndPackets(), 0.7 * before, 1e-9);
  EXPECT_FALSE(cubic.in_slow_start());
}

TEST(CubicTest, LossBurstCountsAsOneEvent) {
  CubicCc cubic;
  for (int i = 0; i < 100; ++i) {
    cubic.OnAck(MakeAck(1.0 + i * 0.001, 0.04));
  }
  LossInfo loss;
  loss.detect_time_s = 2.0;
  cubic.OnPacketLost(loss);
  const double after_first = cubic.CwndPackets();
  loss.detect_time_s = 2.001;  // same RTT
  cubic.OnPacketLost(loss);
  EXPECT_DOUBLE_EQ(cubic.CwndPackets(), after_first);
}

TEST(CubicTest, CubicGrowthAcceleratesAwayFromWmax) {
  CubicCc cubic;
  for (int i = 0; i < 200; ++i) {
    cubic.OnAck(MakeAck(1.0 + i * 0.001, 0.04));
  }
  LossInfo loss;
  loss.detect_time_s = 2.0;
  cubic.OnPacketLost(loss);
  // Growth in the first RTT after loss vs several RTTs later (convex region).
  double w = cubic.CwndPackets();
  cubic.OnAck(MakeAck(2.05, 0.04));
  const double d_early = cubic.CwndPackets() - w;
  for (int i = 0; i < 100; ++i) {
    cubic.OnAck(MakeAck(2.1 + i * 0.04, 0.04));
  }
  w = cubic.CwndPackets();
  cubic.OnAck(MakeAck(6.2, 0.04));
  const double d_late = cubic.CwndPackets() - w;
  EXPECT_GT(d_late, d_early);
}

TEST(CubicTest, TimeoutResetsToMinWindow) {
  CubicCc cubic;
  for (int i = 0; i < 50; ++i) {
    cubic.OnAck(MakeAck(1.0 + i * 0.001, 0.04));
  }
  cubic.OnTimeout(3.0);
  EXPECT_DOUBLE_EQ(cubic.CwndPackets(), 2.0);
}

// --- Vegas ---------------------------------------------------------------------------

TEST(VegasTest, StaysInSlowStartWhileQueueEmpty) {
  VegasCc vegas;
  EXPECT_TRUE(vegas.in_slow_start());
  // RTT at base: no queueing -> keeps (every-other-RTT) doubling.
  for (int rtt = 0; rtt < 4; ++rtt) {
    const int cwnd = static_cast<int>(vegas.CwndPackets());
    for (int i = 0; i < cwnd; ++i) {
      vegas.OnAck(MakeAck(rtt * 0.04 + i * 0.001, 0.04));
    }
  }
  EXPECT_TRUE(vegas.in_slow_start());
  EXPECT_GT(vegas.CwndPackets(), 10.0);
}

TEST(VegasTest, ExitsSlowStartWhenQueueBuilds) {
  VegasCc vegas;
  // Inflated RTTs -> diff above gamma.
  for (int rtt = 0; rtt < 8 && vegas.in_slow_start(); ++rtt) {
    const int cwnd = static_cast<int>(vegas.CwndPackets());
    for (int i = 0; i < cwnd; ++i) {
      vegas.OnAck(MakeAck(rtt * 0.04 + i * 0.001, rtt == 0 ? 0.04 : 0.06));
    }
  }
  EXPECT_FALSE(vegas.in_slow_start());
}

TEST(VegasTest, CongestionAvoidanceKeepsQueueBetweenAlphaAndBeta) {
  VegasCc vegas;
  // Force CA with a known base RTT.
  for (int rtt = 0; rtt < 10; ++rtt) {
    const int cwnd = static_cast<int>(vegas.CwndPackets());
    for (int i = 0; i < cwnd; ++i) {
      vegas.OnAck(MakeAck(rtt * 0.04 + i * 0.001, rtt == 0 ? 0.04 : 0.055));
    }
  }
  // diff = cwnd*(rtt-base)/rtt; drive rtt so diff < alpha -> window grows.
  const double before = vegas.CwndPackets();
  const int cwnd = static_cast<int>(before);
  for (int i = 0; i < cwnd; ++i) {
    vegas.OnAck(MakeAck(1.0 + i * 0.001, 0.0401));
  }
  EXPECT_GT(vegas.CwndPackets(), before - 1e-9);
}

TEST(VegasTest, LossReducesWindowModestly) {
  VegasCc vegas;
  for (int i = 0; i < 40; ++i) {
    vegas.OnAck(MakeAck(1.0 + i * 0.001, 0.04));
  }
  const double before = vegas.CwndPackets();
  LossInfo loss;
  vegas.OnPacketLost(loss);
  EXPECT_NEAR(vegas.CwndPackets(), 0.75 * before, 1e-9);
}

// --- BBR -----------------------------------------------------------------------------

TEST(BbrTest, StartupExitsAfterBandwidthPlateau) {
  BbrCc bbr;
  bbr.OnFlowStart(0.0);
  EXPECT_EQ(bbr.state(), BbrCc::State::kStartup);
  for (int i = 0; i < 8; ++i) {
    bbr.OnAck(MakeAck(i * 0.05, 0.04));
    bbr.OnMonitorInterval(MakeMi(5e6, 0.04, 0.0));
  }
  EXPECT_NE(bbr.state(), BbrCc::State::kStartup);
  EXPECT_NEAR(bbr.BtlBwBps(), 5e6, 1e3);
}

TEST(BbrTest, PacingTracksEstimatedBandwidth) {
  BbrCc bbr;
  bbr.OnFlowStart(0.0);
  for (int i = 0; i < 20; ++i) {
    bbr.OnAck(MakeAck(i * 0.05, 0.04));
    bbr.OnMonitorInterval(MakeMi(8e6, 0.041, 0.0));
  }
  // In PROBE_BW the pacing gain cycles around 1.0 x BtlBw.
  EXPECT_EQ(bbr.state(), BbrCc::State::kProbeBw);
  EXPECT_GE(bbr.PacingRateBps(), 0.7 * 8e6);
  EXPECT_LE(bbr.PacingRateBps(), 1.3 * 8e6);
}

TEST(BbrTest, CwndCapsAtGainTimesBdp) {
  BbrCc bbr;
  bbr.OnFlowStart(0.0);
  for (int i = 0; i < 10; ++i) {
    bbr.OnAck(MakeAck(i * 0.05, 0.04));
    bbr.OnMonitorInterval(MakeMi(12e6, 0.041, 0.0));
  }
  const double bdp_pkts = 12e6 * 0.04 / 12000.0;
  EXPECT_NEAR(bbr.CwndPackets(), 2.0 * bdp_pkts, 2.0);
}

TEST(BbrTest, ProbeRttAfterMinRttExpiry) {
  BbrCc bbr;
  bbr.OnFlowStart(0.0);
  // Reach PROBE_BW.
  for (int i = 0; i < 10; ++i) {
    bbr.OnAck(MakeAck(i * 0.05, 0.04));
    bbr.OnMonitorInterval(MakeMi(5e6, 0.041, 0.0));
  }
  ASSERT_EQ(bbr.state(), BbrCc::State::kProbeBw);
  // Advance the clock past the probe interval without a new min RTT.
  MonitorReport late = MakeMi(5e6, 0.05, 0.0);
  late.start_time_s = 11.0;
  bbr.OnAck(MakeAck(11.0, 0.05));
  bbr.OnMonitorInterval(late);
  EXPECT_EQ(bbr.state(), BbrCc::State::kProbeRtt);
  EXPECT_DOUBLE_EQ(bbr.CwndPackets(), 4.0);
}

// --- Copa ----------------------------------------------------------------------------

TEST(CopaTest, GrowsWhenQueueEmpty) {
  CopaCc copa;
  const double before = copa.CwndPackets();
  for (int i = 0; i < 50; ++i) {
    copa.OnAck(MakeAck(1.0 + i * 0.004, 0.04));  // constant RTT = no queueing
  }
  EXPECT_GT(copa.CwndPackets(), before);
}

TEST(CopaTest, ShrinksWhenAboveTargetRate) {
  CopaCc copa;
  // Standing queue of 40ms on a 40ms base with delta=0.5: target = 1/(0.5*0.04) = 50
  // pkts/s; with cwnd 10 and srtt 80ms the current rate is 125 pkts/s > target.
  for (int i = 0; i < 10; ++i) {
    copa.OnAck(MakeAck(1.0 + i * 0.008, 0.04));
  }
  const double before = copa.CwndPackets();
  for (int i = 0; i < 60; ++i) {
    copa.OnAck(MakeAck(2.0 + i * 0.008, 0.08));
  }
  EXPECT_LT(copa.CwndPackets(), before + 5.0);
}

TEST(CopaTest, VelocityResetsOnTimeout) {
  CopaCc copa;
  for (int i = 0; i < 100; ++i) {
    copa.OnAck(MakeAck(1.0 + i * 0.004, 0.04));
  }
  copa.OnTimeout(3.0);
  EXPECT_DOUBLE_EQ(copa.velocity(), 1.0);
  EXPECT_DOUBLE_EQ(copa.CwndPackets(), 2.0);
}

// --- PCC Allegro ---------------------------------------------------------------------

TEST(AllegroTest, StartingPhaseDoublesWhileUtilityRises) {
  AllegroCc allegro;
  const double r0 = allegro.PacingRateBps();
  allegro.OnMonitorInterval(MakeMi(r0, 0.04, 0.0, 0.05, r0));
  EXPECT_NEAR(allegro.PacingRateBps(), 2 * r0, 1.0);
  EXPECT_EQ(allegro.phase(), AllegroCc::Phase::kStarting);
}

TEST(AllegroTest, EntersMicroExperimentsWhenUtilityDrops) {
  AllegroCc allegro;
  const double r0 = allegro.PacingRateBps();
  allegro.OnMonitorInterval(MakeMi(r0, 0.04, 0.0, 0.05, r0));
  // Heavy loss at the doubled rate -> utility collapses -> testing phase.
  allegro.OnMonitorInterval(MakeMi(r0, 0.04, 0.4, 0.05, 2 * r0));
  EXPECT_EQ(allegro.phase(), AllegroCc::Phase::kTestUp);
}

TEST(AllegroTest, MovesTowardHigherUtilityDirection) {
  AllegroCc allegro;
  const double r0 = allegro.PacingRateBps();
  allegro.OnMonitorInterval(MakeMi(r0, 0.04, 0.0, 0.05, r0));
  allegro.OnMonitorInterval(MakeMi(r0, 0.04, 0.5, 0.05, 2 * r0));  // end starting
  const double base = allegro.base_rate_bps();
  // Up-test good, down-test bad -> base rate should increase.
  allegro.OnMonitorInterval(MakeMi(base * 1.05, 0.04, 0.0, 0.05, base * 1.05));
  allegro.OnMonitorInterval(MakeMi(base * 0.5, 0.04, 0.3, 0.05, base * 0.95));
  EXPECT_GT(allegro.base_rate_bps(), base);
}

// --- PCC Vivace ----------------------------------------------------------------------

TEST(VivaceTest, ClimbsOnPositiveGradient) {
  VivaceCc vivace;
  double rate = vivace.PacingRateBps();
  // Feed intervals where utility rises with rate (no loss, flat RTT).
  for (int i = 0; i < 10; ++i) {
    vivace.OnMonitorInterval(MakeMi(rate, 0.04, 0.0, 0.05, rate));
    rate = vivace.PacingRateBps();
  }
  EXPECT_GT(rate, 2e6);
}

TEST(VivaceTest, BacksOffOnLossGradient) {
  VivaceCc vivace;
  double rate = vivace.PacingRateBps();
  for (int i = 0; i < 3; ++i) {
    vivace.OnMonitorInterval(MakeMi(rate, 0.04, 0.0, 0.05, rate));
    rate = vivace.PacingRateBps();
  }
  const double peak = rate;
  // Now every increase is punished by loss proportional to the rate.
  for (int i = 0; i < 12; ++i) {
    const double loss = std::min(0.5, rate / 40e6);
    vivace.OnMonitorInterval(MakeMi(rate * (1 - loss), 0.04, loss, 0.05, rate));
    rate = vivace.PacingRateBps();
  }
  EXPECT_LT(rate, peak * 1.5);
}

// --- RL adapter / Aurora / Orca ------------------------------------------------------

// The observation the controller should decide on: `prefix` then the
// g⃗(t,η) history of `reports`, built by a fresh MiHistoryTracker.
std::vector<double> ExpectedObservation(std::vector<double> prefix, size_t history_len,
                                        const std::vector<MonitorReport>& reports) {
  MiHistoryTracker history(history_len);
  for (const MonitorReport& r : reports) {
    history.Push(r);
  }
  history.AppendObservation(&prefix);
  return prefix;
}

TEST(RlCcTest, AdapterAppliesEq1WithPolicyMean) {
  Rng rng(3);
  auto model = std::make_shared<MlpActorCritic>(AuroraObsDim(4), &rng);
  RlRateController::Options options;
  options.history_len = 4;
  options.initial_rate_bps = 2e6;
  RlRateController cc(model, options);
  const double before = cc.PacingRateBps();
  const MonitorReport mi = MakeMi(2e6, 0.04, 0.0);
  cc.OnMonitorInterval(mi);
  EXPECT_EQ(cc.inference_count(), 1);
  const double expected = CcEnv::ApplyRateAction(
      before, model->ActionMean(ExpectedObservation({}, 4, {mi})), 0.025);
  EXPECT_NEAR(cc.PacingRateBps(), expected, 1.0);
}

TEST(RlCcTest, PrefixChangesObservation) {
  Rng rng(4);
  auto model = std::make_shared<MlpActorCritic>(3 + 3 * 4, &rng);
  RlRateController::Options options;
  options.history_len = 4;
  options.observation_prefix = {0.8, 0.1, 0.1};
  RlRateController cc(model, options);
  const MonitorReport first = MakeMi(2e6, 0.04, 0.0);
  const MonitorReport second = MakeMi(2e6, 0.05, 0.0);
  cc.OnMonitorInterval(first);
  const double after_first = cc.PacingRateBps();
  EXPECT_NEAR(after_first,
              CcEnv::ApplyRateAction(
                  2e6, model->ActionMean(ExpectedObservation({0.8, 0.1, 0.1}, 4, {first})),
                  0.025),
              1.0);
  // The switch replaces the prefix; the history carries over.
  cc.SetObservationPrefix({0.1, 0.8, 0.1});
  cc.OnMonitorInterval(second);
  const std::vector<double> obs = ExpectedObservation({0.1, 0.8, 0.1}, 4, {first, second});
  EXPECT_NEAR(cc.PacingRateBps(),
              CcEnv::ApplyRateAction(after_first, model->ActionMean(obs), 0.025), 1.0);
}

TEST(AuroraTest, TrainProducesWorkingModelAndCurve) {
  AuroraConfig config;
  config.iterations = 3;
  config.ppo.rollout_steps = 256;
  config.env.max_steps_per_episode = 64;
  std::vector<double> curve;
  auto model = TrainAurora(config, &curve);
  ASSERT_NE(model, nullptr);
  EXPECT_EQ(curve.size(), 3u);
  auto cc = MakeAuroraCc(model);
  EXPECT_EQ(cc->Name(), "Aurora");
  cc->OnMonitorInterval(MakeMi(2e6, 0.05, 0.0));
  EXPECT_GT(cc->PacingRateBps(), 0.0);
}

TEST(OrcaTest, ScaleStaysWithinBounds) {
  Rng rng(5);
  auto model = std::make_shared<MlpActorCritic>(3 * 10, &rng);
  OrcaCc orca(model);
  for (int i = 0; i < 200; ++i) {
    orca.OnAck(MakeAck(1.0 + i * 0.01, 0.04));
    orca.OnMonitorInterval(MakeMi(3e6, 0.05, 0.0));
  }
  EXPECT_GE(orca.scale(), 0.5);
  EXPECT_LE(orca.scale(), 2.0);
  EXPECT_GT(orca.inference_count(), 0);
  // Decoupled control loop: inference every other MI by default.
  EXPECT_LE(orca.inference_count(), 110);
}

TEST(OrcaTest, WindowFollowsCubicTimesScale) {
  Rng rng(6);
  auto model = std::make_shared<MlpActorCritic>(3 * 10, &rng);
  OrcaConfig config;
  OrcaCc orca(model, config);
  CubicCc reference(config.cubic);
  for (int i = 0; i < 30; ++i) {
    orca.OnAck(MakeAck(1.0 + i * 0.001, 0.04));
    reference.OnAck(MakeAck(1.0 + i * 0.001, 0.04));
  }
  EXPECT_NEAR(orca.CwndPackets(), reference.CwndPackets() * orca.scale(), 1e-6);
}

// --- Integration: every scheme fills a clean pipe ------------------------------------

struct SchemeFactory {
  std::string name;
  std::function<std::unique_ptr<CongestionControl>()> make;
  double min_utilization;
};

class SchemeUtilizationTest : public ::testing::TestWithParam<int> {};

std::vector<SchemeFactory> MakeFactories() {
  std::vector<SchemeFactory> factories;
  factories.push_back({"cubic", [] { return std::make_unique<CubicCc>(); }, 0.6});
  factories.push_back({"vegas", [] { return std::make_unique<VegasCc>(); }, 0.5});
  factories.push_back({"bbr", [] { return std::make_unique<BbrCc>(); }, 0.6});
  factories.push_back({"copa", [] { return std::make_unique<CopaCc>(); }, 0.5});
  factories.push_back({"allegro", [] { return std::make_unique<AllegroCc>(); }, 0.5});
  factories.push_back({"vivace", [] { return std::make_unique<VivaceCc>(); }, 0.5});
  return factories;
}

TEST_P(SchemeUtilizationTest, FillsCleanPipe) {
  const auto factories = MakeFactories();
  const SchemeFactory& factory = factories[static_cast<size_t>(GetParam())];
  LinkParams p;
  p.bandwidth_bps = 10e6;
  p.one_way_delay_s = 0.02;
  p.queue_capacity_pkts = static_cast<int>(p.BdpPackets()) + 20;
  PacketNetwork net(p, 99);
  const int flow = net.AddFlow(factory.make());
  net.Run(20.0);
  const double util = net.record(flow).AvgThroughputBps(5.0, 20.0) / p.bandwidth_bps;
  EXPECT_GT(util, factory.min_utilization) << factory.name;
  EXPECT_LE(util, 1.01) << factory.name;
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, SchemeUtilizationTest, ::testing::Range(0, 6));

}  // namespace
}  // namespace mocc
