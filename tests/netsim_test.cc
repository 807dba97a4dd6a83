// Tests for the network simulation substrate: the fluid training link and the
// packet-level event simulator, including conservation properties, droptail behaviour,
// loss accounting, bandwidth traces and failure injection.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/baselines/cubic.h"
#include "src/baselines/rl_cc.h"
#include "src/core/mocc_config.h"
#include "src/core/preference_model.h"
#include "src/netsim/aqm.h"
#include "src/netsim/cc_interface.h"
#include "src/netsim/event_engine.h"
#include "src/netsim/fluid_link.h"
#include "src/netsim/link_params.h"
#include "src/netsim/packet_network.h"

namespace mocc {
namespace {

// Fixed-rate congestion control used to probe the simulators.
class FixedRateCc : public CongestionControl {
 public:
  explicit FixedRateCc(double rate_bps) : rate_bps_(rate_bps) {}
  CcMode Mode() const override { return CcMode::kRateBased; }
  std::string Name() const override { return "FixedRate"; }
  double PacingRateBps() const override { return rate_bps_; }
  void set_rate(double r) { rate_bps_ = r; }

  int monitor_calls = 0;
  MonitorReport last_report;
  void OnMonitorInterval(const MonitorReport& report) override {
    ++monitor_calls;
    last_report = report;
  }

 private:
  double rate_bps_;
};

// Fixed-window congestion control.
class FixedWindowCc : public CongestionControl {
 public:
  explicit FixedWindowCc(double cwnd) : cwnd_(cwnd) {}
  CcMode Mode() const override { return CcMode::kWindowBased; }
  std::string Name() const override { return "FixedWindow"; }
  double CwndPackets() const override { return cwnd_; }
  int timeouts = 0;
  void OnTimeout(double) override { ++timeouts; }

 private:
  double cwnd_;
};

TEST(LinkParamsTest, DerivedQuantities) {
  LinkParams p;
  p.bandwidth_bps = 12e6;
  p.one_way_delay_s = 0.02;
  EXPECT_DOUBLE_EQ(p.BaseRttS(), 0.04);
  EXPECT_NEAR(p.BdpPackets(), 12e6 * 0.04 / 12000.0, 1e-9);
}

TEST(LinkParamsTest, RangeSamplingWithinBounds) {
  Rng rng(5);
  const LinkParamsRange range = TrainingRange();
  for (int i = 0; i < 200; ++i) {
    const LinkParams p = range.Sample(&rng);
    EXPECT_GE(p.bandwidth_bps, range.min_bandwidth_bps);
    EXPECT_LE(p.bandwidth_bps, range.max_bandwidth_bps);
    EXPECT_GE(p.one_way_delay_s, range.min_one_way_delay_s);
    EXPECT_LE(p.one_way_delay_s, range.max_one_way_delay_s);
    EXPECT_GE(p.queue_capacity_pkts, range.min_queue_pkts);
    EXPECT_LE(p.queue_capacity_pkts, range.max_queue_pkts);
    EXPECT_GE(p.random_loss_rate, range.min_loss_rate);
    EXPECT_LE(p.random_loss_rate, range.max_loss_rate);
  }
}

TEST(BandwidthTraceTest, StepsApplyInOrder) {
  BandwidthTrace trace;
  trace.AddStep(10.0, 5e6);
  trace.AddStep(5.0, 2e6);
  EXPECT_DOUBLE_EQ(trace.BandwidthAt(0.0, 1e6), 1e6);
  EXPECT_DOUBLE_EQ(trace.BandwidthAt(5.0, 1e6), 2e6);
  EXPECT_DOUBLE_EQ(trace.BandwidthAt(7.0, 1e6), 2e6);
  EXPECT_DOUBLE_EQ(trace.BandwidthAt(11.0, 1e6), 5e6);
}

TEST(BandwidthTraceTest, OscillatingAlternates) {
  const BandwidthTrace t = BandwidthTrace::Oscillating(2e6, 3e6, 5.0, 20.0);
  EXPECT_DOUBLE_EQ(t.BandwidthAt(1.0, 0.0), 3e6);
  EXPECT_DOUBLE_EQ(t.BandwidthAt(6.0, 0.0), 2e6);
  EXPECT_DOUBLE_EQ(t.BandwidthAt(11.0, 0.0), 3e6);
}

TEST(BandwidthTraceTest, OscillatingCoversFullDurationAndStartsHigh) {
  const BandwidthTrace t = BandwidthTrace::Oscillating(1e6, 4e6, 2.0, 10.0);
  EXPECT_DOUBLE_EQ(t.BandwidthAt(0.0, 0.0), 4e6);   // starts at high_bps
  EXPECT_DOUBLE_EQ(t.BandwidthAt(3.0, 0.0), 1e6);   // 2nd period is low
  EXPECT_DOUBLE_EQ(t.BandwidthAt(9.5, 0.0), 4e6);   // 5th period (even) is high again
  EXPECT_DOUBLE_EQ(t.BandwidthAt(99.0, 0.0), 4e6);  // last step persists past duration
}

TEST(BandwidthTraceTest, RandomWalkStaysInRangeAndIsSeedDeterministic) {
  Rng rng_a(42);
  Rng rng_b(42);
  const BandwidthTrace a = BandwidthTrace::RandomWalk(1e6, 5e6, 2.0, 30.0, &rng_a);
  const BandwidthTrace b = BandwidthTrace::RandomWalk(1e6, 5e6, 2.0, 30.0, &rng_b);
  for (double t = 0.0; t < 30.0; t += 0.5) {
    const double bw = a.BandwidthAt(t, 0.0);
    EXPECT_GE(bw, 1e6);
    EXPECT_LE(bw, 5e6);
    EXPECT_DOUBLE_EQ(bw, b.BandwidthAt(t, 0.0));  // same seed, same walk
  }
  // Distinct seeds must give a distinct walk somewhere.
  Rng rng_c(43);
  const BandwidthTrace c = BandwidthTrace::RandomWalk(1e6, 5e6, 2.0, 30.0, &rng_c);
  bool differs = false;
  for (double t = 0.0; t < 30.0 && !differs; t += 2.0) {
    differs = a.BandwidthAt(t, 0.0) != c.BandwidthAt(t, 0.0);
  }
  EXPECT_TRUE(differs);
}

TEST(BandwidthTraceTest, FromMahimahiTimestampsAveragesWindows) {
  // 4 packets in second 0, 8 packets in second 1 (mahimahi: one MTU per timestamp).
  std::vector<double> ts_ms;
  for (int i = 0; i < 4; ++i) {
    ts_ms.push_back(i * 250.0);
  }
  for (int i = 0; i < 8; ++i) {
    ts_ms.push_back(1000.0 + i * 125.0);
  }
  const BandwidthTrace t = BandwidthTrace::FromMahimahiTimestamps(ts_ms, 1.0);
  EXPECT_DOUBLE_EQ(t.BandwidthAt(0.5, 0.0), 4.0 * kDefaultPacketSizeBits);
  EXPECT_DOUBLE_EQ(t.BandwidthAt(1.5, 0.0), 8.0 * kDefaultPacketSizeBits);
}

TEST(BandwidthTraceTest, FromMahimahiDegenerateInputsYieldEmptyTrace) {
  EXPECT_TRUE(BandwidthTrace::FromMahimahiTimestamps({}, 1.0).empty());
  EXPECT_TRUE(BandwidthTrace::FromMahimahiTimestamps({1.0, 2.0}, 0.0).empty());
  EXPECT_TRUE(
      BandwidthTrace::FromMahimahiFile("/nonexistent/path/to/trace.txt").empty());
}

TEST(BandwidthTraceTest, FromMahimahiFileParsesTimestampsPerLine) {
  const std::string path = ::testing::TempDir() + "/mahimahi_trace_test.txt";
  {
    std::ofstream out(path);
    // 2 packets in second 0, 6 packets in second 1.
    out << "100\n900\n1100\n1200\n1300\n1400\n1500\n1600\n";
  }
  const BandwidthTrace t = BandwidthTrace::FromMahimahiFile(path, 1.0);
  ASSERT_FALSE(t.empty());
  EXPECT_DOUBLE_EQ(t.BandwidthAt(0.5, 0.0), 2.0 * kDefaultPacketSizeBits);
  EXPECT_DOUBLE_EQ(t.BandwidthAt(1.5, 0.0), 6.0 * kDefaultPacketSizeBits);
  std::remove(path.c_str());
}

TEST(FluidLinkTest, UnderloadDeliversEverything) {
  LinkParams p;
  p.bandwidth_bps = 10e6;
  p.one_way_delay_s = 0.02;
  p.random_loss_rate = 0.0;
  FluidLink link(p, 1);
  const MonitorReport r = link.Step(5e6, 1.0);
  EXPECT_NEAR(r.throughput_bps, 5e6, 1e3);
  EXPECT_EQ(r.packets_lost, 0);
  EXPECT_NEAR(r.loss_rate, 0.0, 1e-9);
  EXPECT_GE(r.avg_rtt_s, p.BaseRttS());
}

TEST(FluidLinkTest, OverloadBuildsQueueAndInflatesRtt) {
  LinkParams p;
  p.bandwidth_bps = 10e6;
  p.one_way_delay_s = 0.02;
  p.queue_capacity_pkts = 10000;
  FluidLink link(p, 1);
  const MonitorReport r1 = link.Step(20e6, 1.0);
  EXPECT_NEAR(r1.throughput_bps, 10e6, 1e3);  // capped at capacity
  EXPECT_GT(link.queue_bits(), 0.0);
  const MonitorReport r2 = link.Step(20e6, 1.0);
  EXPECT_GT(r2.avg_rtt_s, r1.avg_rtt_s);  // queue keeps growing
}

TEST(FluidLinkTest, QueueDrainsWhenRateDrops) {
  LinkParams p;
  p.bandwidth_bps = 10e6;
  p.queue_capacity_pkts = 10000;
  FluidLink link(p, 1);
  link.Step(20e6, 1.0);
  const double backlog = link.queue_bits();
  ASSERT_GT(backlog, 0.0);
  link.Step(0.0, 2.0);
  EXPECT_DOUBLE_EQ(link.queue_bits(), 0.0);
}

TEST(FluidLinkTest, DroptailCapsBacklog) {
  LinkParams p;
  p.bandwidth_bps = 1e6;
  p.queue_capacity_pkts = 100;
  FluidLink link(p, 1);
  link.Step(50e6, 1.0);
  EXPECT_LE(link.queue_bits(), 100.0 * kDefaultPacketSizeBits + 1.0);
  const MonitorReport r = link.Step(50e6, 1.0);
  EXPECT_GT(r.loss_rate, 0.9);  // nearly everything dropped
}

TEST(FluidLinkTest, DeterministicLossMatchesExpectation) {
  LinkParams p;
  p.bandwidth_bps = 100e6;
  p.random_loss_rate = 0.02;
  FluidLink link(p, 1, /*stochastic_loss=*/false);
  const MonitorReport r = link.Step(10e6, 1.0);
  EXPECT_NEAR(r.loss_rate, 0.02, 1e-3);
}

TEST(FluidLinkTest, StochasticLossHasCorrectMean) {
  LinkParams p;
  p.bandwidth_bps = 100e6;
  p.random_loss_rate = 0.05;
  FluidLink link(p, 42, /*stochastic_loss=*/true);
  double lost = 0.0;
  double sent = 0.0;
  for (int i = 0; i < 200; ++i) {
    const MonitorReport r = link.Step(10e6, 0.1);
    lost += static_cast<double>(r.packets_lost);
    sent += static_cast<double>(r.packets_sent);
  }
  EXPECT_NEAR(lost / sent, 0.05, 0.01);
}

TEST(FluidLinkTest, TraceChangesCapacity) {
  LinkParams p;
  p.bandwidth_bps = 10e6;
  FluidLink link(p, 1);
  BandwidthTrace trace;
  trace.AddStep(0.0, 2e6);
  link.SetBandwidthTrace(trace);
  const MonitorReport r = link.Step(10e6, 1.0);
  EXPECT_NEAR(r.throughput_bps, 2e6, 1e3);
}

TEST(FluidLinkTest, MonotoneThroughputInBandwidth) {
  // Property: more bandwidth never reduces delivered throughput.
  double prev = 0.0;
  for (double bw = 2e6; bw <= 20e6; bw += 2e6) {
    LinkParams p;
    p.bandwidth_bps = bw;
    FluidLink link(p, 1, false);
    const MonitorReport r = link.Step(30e6, 1.0);
    EXPECT_GE(r.throughput_bps + 1.0, prev);
    prev = r.throughput_bps;
  }
}

TEST(PacketNetworkTest, ConservationSentEqualsAckedPlusLostPlusInflight) {
  LinkParams p;
  p.bandwidth_bps = 10e6;
  p.one_way_delay_s = 0.01;
  p.queue_capacity_pkts = 50;
  p.random_loss_rate = 0.01;
  PacketNetwork net(p, 7);
  const int flow = net.AddFlow(std::make_unique<FixedRateCc>(12e6));
  net.Run(10.0);
  const FlowRecord& rec = net.record(flow);
  EXPECT_GT(rec.total_sent, 0);
  // In-flight packets are those sent but not yet acked or declared lost.
  const int64_t accounted = rec.total_acked + rec.total_lost;
  EXPECT_LE(accounted, rec.total_sent);
  // At 10s with ~30ms feedback delay the unaccounted tail is small.
  EXPECT_LT(rec.total_sent - accounted, 200);
}

TEST(PacketNetworkTest, UnderloadedFlowSeesBaseRttAndNoLoss) {
  LinkParams p;
  p.bandwidth_bps = 10e6;
  p.one_way_delay_s = 0.02;
  p.queue_capacity_pkts = 100;
  PacketNetwork net(p, 7);
  const int flow = net.AddFlow(std::make_unique<FixedRateCc>(2e6));
  net.Run(5.0);
  const FlowRecord& rec = net.record(flow);
  EXPECT_EQ(rec.total_lost, 0);
  EXPECT_NEAR(rec.min_rtt_s, p.BaseRttS() + 12000.0 / 10e6, 2e-3);
  EXPECT_NEAR(rec.AvgThroughputBps(1.0, 5.0), 2e6, 0.1e6);
}

TEST(PacketNetworkTest, OverloadedFlowSaturatesLinkAndDrops) {
  LinkParams p;
  p.bandwidth_bps = 5e6;
  p.one_way_delay_s = 0.01;
  p.queue_capacity_pkts = 20;
  PacketNetwork net(p, 7);
  const int flow = net.AddFlow(std::make_unique<FixedRateCc>(10e6));
  net.Run(5.0);
  const FlowRecord& rec = net.record(flow);
  EXPECT_NEAR(rec.AvgThroughputBps(1.0, 5.0), 5e6, 0.3e6);
  EXPECT_GT(rec.total_lost, 0);
}

TEST(PacketNetworkTest, QueueingInflatesRtt) {
  LinkParams p;
  p.bandwidth_bps = 5e6;
  p.one_way_delay_s = 0.01;
  p.queue_capacity_pkts = 200;
  PacketNetwork net(p, 7);
  auto cc = std::make_unique<FixedRateCc>(6e6);  // 20% overload -> standing queue
  FixedRateCc* cc_raw = cc.get();
  const int flow = net.AddFlow(std::move(cc));
  net.Run(5.0);
  EXPECT_GT(cc_raw->last_report.avg_rtt_s, 2.0 * p.BaseRttS());
  EXPECT_GT(net.record(flow).AvgRttS(), p.BaseRttS());
}

TEST(PacketNetworkTest, RandomLossStatisticsMatchConfig) {
  LinkParams p;
  p.bandwidth_bps = 20e6;
  p.one_way_delay_s = 0.01;
  p.queue_capacity_pkts = 1000;
  p.random_loss_rate = 0.03;
  PacketNetwork net(p, 11);
  const int flow = net.AddFlow(std::make_unique<FixedRateCc>(5e6));
  net.Run(20.0);
  const FlowRecord& rec = net.record(flow);
  EXPECT_NEAR(rec.LossRate(), 0.03, 0.01);
}

TEST(PacketNetworkTest, BandwidthTraceChangesDeliveryRate) {
  LinkParams p;
  p.bandwidth_bps = 10e6;
  p.one_way_delay_s = 0.01;
  p.queue_capacity_pkts = 50;
  PacketNetwork net(p, 13);
  BandwidthTrace trace;
  trace.AddStep(0.0, 10e6);
  trace.AddStep(5.0, 2e6);
  net.SetBandwidthTrace(trace);
  const int flow = net.AddFlow(std::make_unique<FixedRateCc>(20e6));
  net.Run(10.0);
  const FlowRecord& rec = net.record(flow);
  EXPECT_NEAR(rec.AvgThroughputBps(1.0, 5.0), 10e6, 1e6);
  EXPECT_NEAR(rec.AvgThroughputBps(6.0, 10.0), 2e6, 0.5e6);
}

TEST(PacketNetworkTest, TwoEqualFlowsShareFairly) {
  LinkParams p;
  p.bandwidth_bps = 10e6;
  p.one_way_delay_s = 0.02;
  p.queue_capacity_pkts = 60;
  PacketNetwork net(p, 17);
  const int f1 = net.AddFlow(std::make_unique<FixedRateCc>(8e6));
  const int f2 = net.AddFlow(std::make_unique<FixedRateCc>(8e6));
  net.Run(20.0);
  const double t1 = net.record(f1).AvgThroughputBps(2.0, 20.0);
  const double t2 = net.record(f2).AvgThroughputBps(2.0, 20.0);
  EXPECT_NEAR(t1 / (t1 + t2), 0.5, 0.1);
  EXPECT_NEAR(t1 + t2, 10e6, 1e6);
}

TEST(PacketNetworkTest, StaggeredStartAndStopRespected) {
  LinkParams p;
  p.bandwidth_bps = 10e6;
  p.one_way_delay_s = 0.01;
  PacketNetwork net(p, 19);
  FlowOptions opts;
  opts.start_time_s = 2.0;
  opts.stop_time_s = 4.0;
  const int flow = net.AddFlow(std::make_unique<FixedRateCc>(2e6), opts);
  net.Run(8.0);
  const FlowRecord& rec = net.record(flow);
  EXPECT_GE(rec.first_send_time_s, 2.0);
  EXPECT_LE(rec.last_ack_time_s, 4.5);
}

TEST(PacketNetworkTest, WindowFlowIsAckClocked) {
  LinkParams p;
  p.bandwidth_bps = 10e6;
  p.one_way_delay_s = 0.02;
  p.queue_capacity_pkts = 500;
  PacketNetwork net(p, 23);
  const int flow = net.AddFlow(std::make_unique<FixedWindowCc>(10.0));
  net.Run(5.0);
  const FlowRecord& rec = net.record(flow);
  // Throughput of a fixed window = cwnd / RTT.
  const double expected = 10.0 * 12000.0 / (p.BaseRttS() + 12000.0 / 10e6);
  EXPECT_NEAR(rec.AvgThroughputBps(1.0, 5.0), expected, 0.15 * expected);
}

TEST(PacketNetworkTest, MonitorIntervalsReported) {
  LinkParams p;
  p.bandwidth_bps = 5e6;
  p.one_way_delay_s = 0.02;
  PacketNetwork net(p, 29);
  auto cc = std::make_unique<FixedRateCc>(2e6);
  FixedRateCc* raw = cc.get();
  net.AddFlow(std::move(cc));
  net.Run(5.0);
  EXPECT_GT(raw->monitor_calls, 50);
  EXPECT_GT(raw->last_report.packets_acked, 0);
  EXPECT_NEAR(raw->last_report.send_rate_bps, 2e6, 0.4e6);
}

TEST(PacketNetworkTest, PauseStopsTransmission) {
  LinkParams p;
  p.bandwidth_bps = 10e6;
  p.one_way_delay_s = 0.01;
  PacketNetwork net(p, 31);
  const int flow = net.AddFlow(std::make_unique<FixedRateCc>(5e6));
  net.Run(2.0);
  const int64_t sent_before = net.record(flow).total_sent;
  net.PauseFlow(flow);
  net.Run(4.0);
  EXPECT_LE(net.record(flow).total_sent - sent_before, 1);
  net.ResumeFlow(flow);
  net.Run(6.0);
  EXPECT_GT(net.record(flow).total_sent, sent_before + 100);
}

TEST(PacketNetworkTest, RunUntilStopsOnPredicate) {
  LinkParams p;
  p.bandwidth_bps = 10e6;
  p.one_way_delay_s = 0.01;
  PacketNetwork net(p, 37);
  const int flow = net.AddFlow(std::make_unique<FixedRateCc>(5e6));
  net.RunUntil([&]() { return net.record(flow).bits_acked >= 1'000'000; }, 100.0);
  EXPECT_GE(net.record(flow).bits_acked, 1'000'000);
  EXPECT_LT(net.now_s(), 10.0);
}

TEST(PacketNetworkTest, TotalLossBurstTriggersTimeout) {
  // Failure injection: a window flow whose packets are all lost must recover via RTO
  // instead of deadlocking.
  LinkParams p;
  p.bandwidth_bps = 10e6;
  p.one_way_delay_s = 0.01;
  p.random_loss_rate = 1.0;  // everything dropped
  PacketNetwork net(p, 41);
  auto cc = std::make_unique<FixedWindowCc>(10.0);
  FixedWindowCc* raw = cc.get();
  net.AddFlow(std::move(cc));
  net.Run(10.0);
  EXPECT_EQ(net.record(0).total_acked, 0);
  EXPECT_GT(net.record(0).total_sent, 0);
  (void)raw;
}

TEST(PacketNetworkTest, ZeroBandwidthDoesNotCrash) {
  LinkParams p;
  p.bandwidth_bps = 10e6;
  p.one_way_delay_s = 0.01;
  PacketNetwork net(p, 43);
  BandwidthTrace trace;
  trace.AddStep(0.0, 0.0);  // dead link
  net.SetBandwidthTrace(trace);
  net.AddFlow(std::make_unique<FixedRateCc>(1e6));
  net.Run(2.0);
  EXPECT_EQ(net.record(0).total_acked, 0);
}

TEST(PacketNetworkTest, DeterministicGivenSeed) {
  auto run = [](uint64_t seed) {
    LinkParams p;
    p.bandwidth_bps = 8e6;
    p.one_way_delay_s = 0.015;
    p.random_loss_rate = 0.02;
    p.queue_capacity_pkts = 40;
    PacketNetwork net(p, seed);
    const int flow = net.AddFlow(std::make_unique<FixedRateCc>(9e6));
    net.Run(5.0);
    return net.record(flow).total_acked;
  };
  EXPECT_EQ(run(99), run(99));
  EXPECT_NE(run(99), run(100));
}

// Named specs for the shapes the tests below build (see BuildTopology).
TopologySpec ParkingLotSpec(int hops) {
  TopologySpec spec;
  spec.kind = TopologyKind::kParkingLot;
  spec.hops = hops;
  return spec;
}

TopologySpec ReversePathSpec() {
  TopologySpec spec;
  spec.kind = TopologyKind::kReversePath;
  return spec;
}

TEST(TopologyTest, BuildersMatchSpecShapes) {
  LinkParams p;
  p.bandwidth_bps = 5e6;
  p.one_way_delay_s = 0.010;
  EXPECT_EQ(NetworkTopology::SingleBottleneck(p).links.size(), 1u);
  EXPECT_EQ(BuildTopology(ParkingLotSpec(3), p).links.size(), 3u);
  EXPECT_EQ(BuildTopology(ReversePathSpec(), p).links.size(), 2u);

  const TopologySpec parking = ParkingLotSpec(3);
  const FlowPathSpec agent = AgentPath(parking, 0);
  EXPECT_EQ(agent.path, (std::vector<int>{0, 1, 2}));
  EXPECT_TRUE(agent.ack_path.empty());
  EXPECT_EQ(CompetitorPath(parking, 0).path, (std::vector<int>{0}));
  EXPECT_EQ(CompetitorPath(parking, 2).path, (std::vector<int>{2}));
  EXPECT_EQ(CompetitorPath(parking, 4).path, (std::vector<int>{1}));  // wraps

  const TopologySpec reverse = ReversePathSpec();
  EXPECT_EQ(AgentPath(reverse, 0).ack_path, (std::vector<int>{1}));
  EXPECT_EQ(CompetitorPath(reverse, 0).path, (std::vector<int>{1}));
  EXPECT_TRUE(CompetitorPath(reverse, 0).ack_path.empty());
}

TEST(PacketNetworkTopologyTest, MultiHopPathConservesAndStretchesRtt) {
  LinkParams p;
  p.bandwidth_bps = 10e6;
  p.one_way_delay_s = 0.010;
  p.queue_capacity_pkts = 200;
  PacketNetwork net(BuildTopology(ParkingLotSpec(3), p), 7);
  FlowOptions opts;
  opts.path = {0, 1, 2};
  const int flow = net.AddFlow(std::make_unique<FixedRateCc>(4e6), opts);
  net.Run(10.0);
  const FlowRecord& rec = net.record(flow);
  EXPECT_GT(rec.total_acked, 0);
  EXPECT_EQ(rec.total_lost, 0);  // underloaded everywhere
  EXPECT_LE(rec.total_acked, rec.total_sent);
  // Base RTT = 3 hops of propagation each way plus 3 serializations.
  const double expected_rtt = 6.0 * p.one_way_delay_s + 3.0 * 12000.0 / 10e6;
  EXPECT_NEAR(rec.min_rtt_s, expected_rtt, 2e-3);
  EXPECT_NEAR(rec.AvgThroughputBps(2.0, 10.0), 4e6, 0.4e6);
}

TEST(PacketNetworkTopologyTest, CrossTrafficCongestsEveryParkingLotHop) {
  // The end-to-end flow crosses three hops each loaded by its own cross flow;
  // it must end up with less than a single-hop fair share, and losses can
  // happen at any hop (mid-path drops feed back as loss notices).
  LinkParams p;
  p.bandwidth_bps = 6e6;
  p.one_way_delay_s = 0.010;
  p.queue_capacity_pkts = 50;
  PacketNetwork net(BuildTopology(ParkingLotSpec(3), p), 11);
  FlowOptions e2e;
  e2e.path = {0, 1, 2};
  const int through = net.AddFlow(std::make_unique<FixedRateCc>(6e6), e2e);
  std::vector<int> cross;
  for (int hop = 0; hop < 3; ++hop) {
    FlowOptions opts;
    opts.path = {hop};
    cross.push_back(net.AddFlow(std::make_unique<FixedRateCc>(5e6), opts));
  }
  net.Run(15.0);
  const double through_bps = net.record(through).AvgThroughputBps(3.0, 15.0);
  EXPECT_GT(through_bps, 0.5e6);
  EXPECT_LT(through_bps, 0.6 * 6e6);  // squeezed below a 2-flow single-hop share
  for (int id : cross) {
    EXPECT_GT(net.record(id).AvgThroughputBps(3.0, 15.0), through_bps);
  }
  EXPECT_GT(net.record(through).total_lost, 0);
}

TEST(PacketNetworkTopologyTest, ReversePathCongestionDelaysAcks) {
  // The same forward flow, with and without data traffic loading the link its
  // ACKs return through: reverse congestion must inflate the measured RTT
  // without costing forward deliveries (ACKs are never dropped).
  auto run = [](bool load_reverse) {
    LinkParams p;
    p.bandwidth_bps = 8e6;
    p.one_way_delay_s = 0.015;
    p.queue_capacity_pkts = 100;
    PacketNetwork net(BuildTopology(ReversePathSpec(), p), 13);
    FlowOptions agent;
    agent.path = {0};
    agent.ack_path = {1};
    const int flow = net.AddFlow(std::make_unique<FixedRateCc>(3e6), agent);
    if (load_reverse) {
      FlowOptions rev;
      rev.path = {1};
      net.AddFlow(std::make_unique<FixedRateCc>(10e6), rev);  // overdrives link 1
    }
    net.Run(10.0);
    struct Out {
      double rtt;
      int64_t acked;
      int64_t lost;
    };
    return Out{net.record(flow).AvgRttS(), net.record(flow).total_acked,
               net.record(flow).total_lost};
  };
  const auto quiet = run(false);
  const auto loaded = run(true);
  EXPECT_GT(quiet.acked, 0);
  EXPECT_GT(loaded.acked, 0);
  EXPECT_GT(loaded.rtt, quiet.rtt + 0.005);  // >=5 ms of reverse queueing
  EXPECT_EQ(quiet.lost, 0);
  EXPECT_EQ(loaded.lost, 0);  // forward path stayed underloaded; ACKs not dropped
}

TEST(PacketNetworkTopologyTest, TopologyRunsAreBitDeterministic) {
  auto run = [](TopologyKind kind, uint64_t seed) {
    LinkParams p;
    p.bandwidth_bps = 6e6;
    p.one_way_delay_s = 0.012;
    p.queue_capacity_pkts = 60;
    p.random_loss_rate = 0.01;
    TopologySpec spec;
    spec.kind = kind;
    PacketNetwork net(BuildTopology(spec, p), seed);
    FlowOptions agent;
    const FlowPathSpec agent_paths = AgentPath(spec, 0);
    agent.path = agent_paths.path;
    agent.ack_path = agent_paths.ack_path;
    const int a = net.AddFlow(std::make_unique<FixedRateCc>(4e6), agent);
    FlowOptions comp;
    const FlowPathSpec comp_paths = CompetitorPath(spec, 0);
    comp.path = comp_paths.path;
    comp.ack_path = comp_paths.ack_path;
    const int c = net.AddFlow(std::make_unique<FixedWindowCc>(20.0), comp);
    net.Run(8.0);
    std::vector<double> digest = {
        static_cast<double>(net.record(a).total_sent),
        static_cast<double>(net.record(a).total_acked),
        static_cast<double>(net.record(a).total_lost),
        net.record(a).min_rtt_s,
        net.record(a).last_ack_time_s,
        static_cast<double>(net.record(c).total_acked),
        net.record(c).last_ack_time_s,
    };
    return digest;
  };
  for (TopologyKind kind :
       {TopologyKind::kDumbbell, TopologyKind::kParkingLot, TopologyKind::kReversePath}) {
    const auto a = run(kind, 99);
    const auto b = run(kind, 99);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i], b[i]) << "kind " << static_cast<int>(kind) << " element " << i;
    }
    EXPECT_NE(run(kind, 99), run(kind, 100));
  }
}

TEST(PacketNetworkTest, DeferredAckCoalescingMatchesPerAckEvents) {
  // A scheme that opts out of per-ACK events must produce the exact same record
  // as an identical scheme that keeps them (the lazy drain applies the same
  // values in the same per-flow order).
  class RecordingRateCc : public FixedRateCc {
   public:
    RecordingRateCc(double rate_bps, bool per_ack_events)
        : FixedRateCc(rate_bps), per_ack_events_(per_ack_events) {}
    bool NeedsPerAckEvents() const override { return per_ack_events_; }
    void OnAck(const AckInfo& ack) override { ack_times.push_back(ack.ack_time_s); }
    void OnMonitorInterval(const MonitorReport& report) override {
      reports.push_back(report);
    }
    std::vector<double> ack_times;
    std::vector<MonitorReport> reports;

   private:
    bool per_ack_events_;
  };
  auto run = [](bool opt_out) {
    LinkParams p;
    p.bandwidth_bps = 8e6;
    p.one_way_delay_s = 0.02;
    p.queue_capacity_pkts = 40;
    p.random_loss_rate = 0.01;
    PacketNetwork net(p, 51);
    const int flow = net.AddFlow(std::make_unique<RecordingRateCc>(9e6, !opt_out));
    net.Run(10.0);
    const FlowRecord& rec = net.record(flow);
    return std::vector<double>{
        static_cast<double>(rec.total_sent), static_cast<double>(rec.total_acked),
        static_cast<double>(rec.total_lost), rec.min_rtt_s, rec.last_ack_time_s,
        rec.AvgThroughputBps(1.0, 10.0), rec.AvgRttS()};
  };
  const auto with_events = run(false);
  const auto coalesced = run(true);
  ASSERT_EQ(with_events.size(), coalesced.size());
  for (size_t i = 0; i < with_events.size(); ++i) {
    EXPECT_EQ(with_events[i], coalesced[i]) << "element " << i;
  }

  // A delay spike (flaky-link's: +50 ms for 0.4 s every 2 s) reorders the
  // FIFO path's ACK arrivals at the end of every spike: packets finishing
  // serialization after it overtake those still on the stretched wire. The
  // coalesced path must still apply every ACK at its own instant — every
  // MonitorReport and the OnAck time sequence match the per-ACK path.
  auto run_spiky = [](bool per_ack_events, std::vector<double>* ack_times,
                      std::vector<MonitorReport>* reports) {
    LinkParams p;
    p.bandwidth_bps = 10e6;
    p.one_way_delay_s = 0.02;
    p.queue_capacity_pkts = 100;
    NetworkTopology topology = NetworkTopology::SingleBottleneck(p);
    topology.links[0].fault.delay_spike_period_s = 2.0;
    topology.links[0].fault.delay_spike_duration_s = 0.4;
    topology.links[0].fault.delay_spike_extra_s = 0.050;
    PacketNetwork net(topology, 52);
    FlowOptions options;
    options.mi_fixed_duration_s = 0.030;
    auto cc = std::make_unique<RecordingRateCc>(8e6, per_ack_events);
    RecordingRateCc* recorder = cc.get();
    net.AddFlow(std::move(cc), options);
    net.Run(6.0);
    *ack_times = recorder->ack_times;
    *reports = recorder->reports;
  };
  std::vector<double> event_acks, coalesced_acks;
  std::vector<MonitorReport> event_reports, coalesced_reports;
  run_spiky(true, &event_acks, &event_reports);
  run_spiky(false, &coalesced_acks, &coalesced_reports);
  EXPECT_TRUE(std::is_sorted(event_acks.begin(), event_acks.end()));
  EXPECT_EQ(event_acks, coalesced_acks);
  ASSERT_EQ(event_reports.size(), coalesced_reports.size());
  ASSERT_GT(event_reports.size(), 150u);
  for (size_t i = 0; i < event_reports.size(); ++i) {
    const MonitorReport& a = event_reports[i];
    const MonitorReport& b = coalesced_reports[i];
    EXPECT_EQ(a.start_time_s, b.start_time_s) << "report " << i;
    EXPECT_EQ(a.duration_s, b.duration_s) << "report " << i;
    EXPECT_EQ(a.packets_sent, b.packets_sent) << "report " << i;
    EXPECT_EQ(a.packets_acked, b.packets_acked) << "report " << i;
    EXPECT_EQ(a.packets_lost, b.packets_lost) << "report " << i;
    EXPECT_EQ(a.send_rate_bps, b.send_rate_bps) << "report " << i;
    EXPECT_EQ(a.throughput_bps, b.throughput_bps) << "report " << i;
    EXPECT_EQ(a.avg_rtt_s, b.avg_rtt_s) << "report " << i;
    EXPECT_EQ(a.min_rtt_s, b.min_rtt_s) << "report " << i;
    EXPECT_EQ(a.loss_rate, b.loss_rate) << "report " << i;
    EXPECT_EQ(a.packets_marked, b.packets_marked) << "report " << i;
    EXPECT_EQ(a.ecn_rate, b.ecn_rate) << "report " << i;
  }
}

// Forwards every callback to `inner` and records what the simulator handed
// it: loss-notice times, MonitorReports, and the rate after each MI. With
// force_per_ack it asks for per-ACK events whatever `inner` says — the
// reference a deferred run must reproduce.
class ForwardingCc : public CongestionControl {
 public:
  ForwardingCc(std::unique_ptr<CongestionControl> inner, bool force_per_ack)
      : inner_(std::move(inner)), force_per_ack_(force_per_ack) {}
  CcMode Mode() const override { return inner_->Mode(); }
  std::string Name() const override { return inner_->Name(); }
  void OnFlowStart(double now_s) override { inner_->OnFlowStart(now_s); }
  void OnAck(const AckInfo& ack) override { inner_->OnAck(ack); }
  void OnPacketLost(const LossInfo& loss) override {
    loss_times.push_back(loss.detect_time_s);
    inner_->OnPacketLost(loss);
  }
  void OnTimeout(double now_s) override { inner_->OnTimeout(now_s); }
  void OnMonitorInterval(const MonitorReport& report) override {
    reports.push_back(report);
    inner_->OnMonitorInterval(report);
    rates.push_back(inner_->PacingRateBps());
  }
  double PacingRateBps() const override { return inner_->PacingRateBps(); }
  double CwndPackets() const override { return inner_->CwndPackets(); }
  bool NeedsPerAckEvents() const override {
    return force_per_ack_ || inner_->NeedsPerAckEvents();
  }

  CongestionControl* inner() const { return inner_.get(); }
  std::vector<double> loss_times;
  std::vector<MonitorReport> reports;
  std::vector<double> rates;

 private:
  std::unique_ptr<CongestionControl> inner_;
  bool force_per_ack_;
};

// A fixed-rate monitor-interval rater that opts out of per-ACK events.
class DeferringRateCc : public FixedRateCc {
 public:
  using FixedRateCc::FixedRateCc;
  bool NeedsPerAckEvents() const override { return false; }
};

void ExpectSameReports(const std::vector<MonitorReport>& a,
                       const std::vector<MonitorReport>& b, const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].start_time_s, b[i].start_time_s) << what << " report " << i;
    EXPECT_EQ(a[i].duration_s, b[i].duration_s) << what << " report " << i;
    EXPECT_EQ(a[i].packets_sent, b[i].packets_sent) << what << " report " << i;
    EXPECT_EQ(a[i].packets_acked, b[i].packets_acked) << what << " report " << i;
    EXPECT_EQ(a[i].packets_lost, b[i].packets_lost) << what << " report " << i;
    EXPECT_EQ(a[i].send_rate_bps, b[i].send_rate_bps) << what << " report " << i;
    EXPECT_EQ(a[i].throughput_bps, b[i].throughput_bps) << what << " report " << i;
    EXPECT_EQ(a[i].avg_rtt_s, b[i].avg_rtt_s) << what << " report " << i;
    EXPECT_EQ(a[i].min_rtt_s, b[i].min_rtt_s) << what << " report " << i;
    EXPECT_EQ(a[i].loss_rate, b[i].loss_rate) << what << " report " << i;
    EXPECT_EQ(a[i].packets_marked, b[i].packets_marked) << what << " report " << i;
  }
}

void ExpectSameRecords(const FlowRecord& a, const FlowRecord& b, const std::string& what) {
  EXPECT_EQ(a.total_sent, b.total_sent) << what;
  EXPECT_EQ(a.total_acked, b.total_acked) << what;
  EXPECT_EQ(a.total_lost, b.total_lost) << what;
  EXPECT_EQ(a.total_marked, b.total_marked) << what;
  EXPECT_EQ(a.bits_acked, b.bits_acked) << what;
  EXPECT_EQ(a.first_send_time_s, b.first_send_time_s) << what;
  EXPECT_EQ(a.last_ack_time_s, b.last_ack_time_s) << what;
  EXPECT_EQ(a.min_rtt_s, b.min_rtt_s) << what;
  EXPECT_EQ(a.ack_times(), b.ack_times()) << what;
}

// Runs `flows` deferrable schemes next to one CUBIC flow on a 10 Mbps CoDel
// bottleneck, either deferred or forced per-ACK, and hands back the wrappers
// and the records.
struct CodelRun {
  std::vector<ForwardingCc*> ccs;
  std::vector<FlowRecord> records;
  std::unique_ptr<PacketNetwork> net;
};

CodelRun RunCodelMix(const std::vector<std::function<std::unique_ptr<CongestionControl>()>>& makers,
                     bool force_per_ack, double seconds) {
  LinkParams p;
  p.bandwidth_bps = 10e6;
  p.one_way_delay_s = 0.02;
  p.queue_capacity_pkts = 300;
  NetworkTopology topology = NetworkTopology::SingleBottleneck(p);
  topology.links[0].aqm.kind = AqmKind::kCodel;
  CodelRun run;
  run.net = std::make_unique<PacketNetwork>(topology, 61);
  std::vector<int> ids;
  for (const auto& make : makers) {
    FlowOptions options;
    options.mi_fixed_duration_s = 0.030;
    auto cc = std::make_unique<ForwardingCc>(make(), force_per_ack);
    run.ccs.push_back(cc.get());
    ids.push_back(run.net->AddFlow(std::move(cc), options));
  }
  ids.push_back(run.net->AddFlow(std::make_unique<CubicCc>()));
  run.net->Run(seconds);
  for (int id : ids) {
    run.records.push_back(run.net->record(id));
  }
  return run;
}

TEST(PacketNetworkTest, DeferredAcksExactUnderCodelDropsInOtherFlowsEvents) {
  // CoDel drops at dequeue, inside whichever flow's link-done event started
  // service, and the loss-notice delay reads the DROPPED flow's smoothed RTT.
  // A deferred flow's ACKs that arrived before the drop must be applied
  // first, or its notices land at different times than with per-ACK events.
  const std::vector<std::function<std::unique_ptr<CongestionControl>()>> makers = {
      [] { return std::make_unique<DeferringRateCc>(4.0e6); },
      [] { return std::make_unique<DeferringRateCc>(3.5e6); },
      [] { return std::make_unique<DeferringRateCc>(3.0e6); },
  };
  const CodelRun deferred = RunCodelMix(makers, /*force_per_ack=*/false, 10.0);
  const CodelRun per_ack = RunCodelMix(makers, /*force_per_ack=*/true, 10.0);
  size_t losses = 0;
  for (size_t f = 0; f < makers.size(); ++f) {
    const std::string what = "flow " + std::to_string(f);
    losses += per_ack.ccs[f]->loss_times.size();
    EXPECT_EQ(deferred.ccs[f]->loss_times, per_ack.ccs[f]->loss_times) << what;
    ExpectSameReports(deferred.ccs[f]->reports, per_ack.ccs[f]->reports, what);
  }
  EXPECT_GT(losses, 500u) << "the link must be overdriven into CoDel's dropping state";
  for (size_t i = 0; i < deferred.records.size(); ++i) {
    ExpectSameRecords(deferred.records[i], per_ack.records[i],
                      "record " + std::to_string(i));
  }
}

TEST(PacketNetworkTest, RlControllersDeferAcksWithIdenticalDecisions) {
  // RlRateController opts out of per-ACK events; with the guard off and on,
  // its rates and decision counts must equal a forced per-ACK run's, next to
  // CUBIC on a CoDel bottleneck.
  MoccConfig config;
  Rng rng(23);
  auto model = std::make_shared<PreferenceActorCritic>(config, &rng);
  for (bool guard : {false, true}) {
    std::vector<std::function<std::unique_ptr<CongestionControl>()>> makers;
    for (const std::vector<double>& w :
         {std::vector<double>{0.8, 0.1, 0.1}, std::vector<double>{0.1, 0.8, 0.1},
          std::vector<double>{0.1, 0.1, 0.8}}) {
      makers.push_back([model, w, guard] {
        RlRateController::Options options;
        options.observation_prefix = w;
        options.precision = Precision::kFloat32;
        options.initial_rate_bps = 4e6;
        options.guard = guard;
        return std::make_unique<RlRateController>(model, options);
      });
    }
    EXPECT_FALSE(makers[0]()->NeedsPerAckEvents());
    const CodelRun deferred = RunCodelMix(makers, /*force_per_ack=*/false, 8.0);
    const CodelRun per_ack = RunCodelMix(makers, /*force_per_ack=*/true, 8.0);
    for (size_t f = 0; f < makers.size(); ++f) {
      const std::string what =
          std::string(guard ? "guarded" : "unguarded") + " flow " + std::to_string(f);
      const auto* d = static_cast<const RlRateController*>(deferred.ccs[f]->inner());
      const auto* e = static_cast<const RlRateController*>(per_ack.ccs[f]->inner());
      EXPECT_GT(e->inference_count(), 100) << what;
      EXPECT_EQ(d->inference_count(), e->inference_count()) << what;
      EXPECT_EQ(deferred.ccs[f]->rates, per_ack.ccs[f]->rates) << what;
      EXPECT_EQ(deferred.ccs[f]->loss_times, per_ack.ccs[f]->loss_times) << what;
      ExpectSameReports(deferred.ccs[f]->reports, per_ack.ccs[f]->reports, what);
      if (guard) {
        ASSERT_NE(d->guard(), nullptr) << what;
        EXPECT_EQ(d->guard()->trip_count(), e->guard()->trip_count()) << what;
      }
    }
    for (size_t i = 0; i < deferred.records.size(); ++i) {
      ExpectSameRecords(deferred.records[i], per_ack.records[i],
                        std::string(guard ? "guarded" : "unguarded") + " record " +
                            std::to_string(i));
    }
  }
}

TEST(FlowRecordTest, BinnedThroughputAndGaps) {
  FlowRecord rec;
  rec.keep_delivery_times = true;
  rec.RecordAck(0.5);
  rec.RecordAck(1.5);
  rec.RecordAck(1.7);
  rec.RecordDelivery(0.4);
  rec.RecordDelivery(0.6);
  rec.RecordDelivery(1.0);
  const auto bins = rec.BinnedThroughputMbps(0.0, 2.0, 1.0);
  ASSERT_EQ(bins.size(), 2u);
  EXPECT_NEAR(bins[0], 0.012, 1e-9);
  EXPECT_NEAR(bins[1], 0.024, 1e-9);
  const auto gaps = rec.InterDeliveryGapsS();
  ASSERT_EQ(gaps.size(), 2u);
  EXPECT_NEAR(gaps[0], 0.2, 1e-9);
  EXPECT_NEAR(gaps[1], 0.4, 1e-9);
}

TEST(EventQueueTest, LanesPopTheSameSequenceAsALaneFreeQueue) {
  // A seeded push/pop script over lane and standalone events. Lanes are fed
  // mostly in time order, like the simulator's per-flow ACK and loss streams,
  // with out-of-order admissions, equal-time ties (times on a 1 ms grid), and
  // push-heavy / pop-heavy phases that drain lanes and refill them. The pops
  // must follow a lane-free reference ordered by (time, order), payload
  // included, and the heap may hold at most one key per non-empty lane plus
  // the events scheduled standalone.
  constexpr int kLanes = 6;
  EventQueue queue;
  ASSERT_EQ(queue.AddLanes(2), 0u);
  ASSERT_EQ(queue.AddLanes(kLanes - 2), 2u);

  struct Pending {
    SimEvent ev;
    int lane;      // -1: pushed standalone
    bool in_lane;  // joined its lane (false: sorted before the lane's tail)
  };
  using Ordinal = std::pair<double, uint64_t>;
  std::map<Ordinal, Pending> reference;
  std::vector<int> in_lane_pending(kLanes, 0);
  std::vector<Ordinal> lane_tail(kLanes, Ordinal{0.0, 0});
  int standalone_pending = 0;

  std::mt19937_64 rng(20260418);
  auto grid_ms = [&rng](uint64_t span) { return static_cast<double>(rng() % span) * 1e-3; };
  double now = 0.0;
  uint64_t next_order = 0;
  int out_of_order = 0, ties = 0, refills = 0, pops = 0;
  for (int step = 0; step < 40000; ++step) {
    const bool push_heavy = (step / 500) % 2 == 0;
    const bool push = reference.empty() || rng() % 100 < (push_heavy ? 70u : 30u);
    if (push) {
      SimEvent ev{};
      ev.order = next_order++;
      ev.send_time_s = now;
      ev.seq = static_cast<int64_t>(rng() % 100000);
      ev.type = static_cast<uint8_t>(rng() % 9);
      ev.hop = static_cast<uint8_t>(rng() % 8);
      ev.is_ack = static_cast<uint8_t>(rng() % 2);
      ev.ecn = static_cast<uint8_t>(rng() % 2);
      const int lane = static_cast<int>(rng() % (kLanes + 1)) - 1;
      ev.flow_id = lane;
      if (lane < 0) {
        ev.time_s = now + grid_ms(60);
        queue.push(ev);
        reference[{ev.time_s, ev.order}] = {ev, lane, false};
        ++standalone_pending;
      } else {
        const size_t l = static_cast<size_t>(lane);
        const bool lane_busy = in_lane_pending[l] > 0;
        if (lane_busy && rng() % 8 == 0) {
          // Anywhere in [now, tail]: before the tail, or tied with it.
          const double span_ms = (lane_tail[l].first - now) * 1e3;
          ev.time_s = now + grid_ms(static_cast<uint64_t>(span_ms) + 1);
        } else {
          ev.time_s = (lane_busy ? lane_tail[l].first : now) + grid_ms(4);
        }
        const Ordinal ordinal{ev.time_s, ev.order};
        const bool joins = !lane_busy || !(ordinal < lane_tail[l]);
        if (joins) {
          if (!lane_busy && lane_tail[l].second != 0) {
            ++refills;
          }
          if (lane_busy && ev.time_s == lane_tail[l].first) {
            ++ties;
          }
          lane_tail[l] = ordinal;
          ++in_lane_pending[l];
        } else {
          ++out_of_order;
          ++standalone_pending;
        }
        queue.push(ev, static_cast<EventQueue::LaneId>(lane));
        reference[ordinal] = {ev, lane, joins};
      }
    } else {
      ASSERT_FALSE(queue.empty());
      const auto first = reference.begin();
      const Pending expected = first->second;
      reference.erase(first);
      const SimEvent got = queue.pop();
      ++pops;
      ASSERT_EQ(got.time_s, expected.ev.time_s) << "pop " << pops;
      ASSERT_EQ(got.order, expected.ev.order) << "pop " << pops;
      ASSERT_EQ(got.send_time_s, expected.ev.send_time_s) << "pop " << pops;
      ASSERT_EQ(got.seq, expected.ev.seq) << "pop " << pops;
      ASSERT_EQ(got.flow_id, expected.ev.flow_id) << "pop " << pops;
      ASSERT_EQ(got.type, expected.ev.type) << "pop " << pops;
      ASSERT_EQ(got.hop, expected.ev.hop) << "pop " << pops;
      ASSERT_EQ(got.is_ack, expected.ev.is_ack) << "pop " << pops;
      ASSERT_EQ(got.ecn, expected.ev.ecn) << "pop " << pops;
      now = got.time_s;
      if (expected.in_lane) {
        --in_lane_pending[static_cast<size_t>(expected.lane)];
      } else {
        --standalone_pending;
      }
    }
    int busy_lanes = 0;
    for (const int n : in_lane_pending) {
      busy_lanes += n > 0 ? 1 : 0;
    }
    ASSERT_LE(queue.heap_size(), static_cast<size_t>(busy_lanes + standalone_pending))
        << "step " << step;
    ASSERT_EQ(queue.empty(), reference.empty()) << "step " << step;
  }
  while (!reference.empty()) {
    const SimEvent got = queue.pop();
    EXPECT_EQ(got.order, reference.begin()->second.ev.order);
    reference.erase(reference.begin());
  }
  EXPECT_TRUE(queue.empty());
  // The script exercised what it claims to.
  EXPECT_GT(out_of_order, 100);
  EXPECT_GT(ties, 100);
  EXPECT_GT(refills, 100);
  EXPECT_GT(pops, 10000);
}

}  // namespace
}  // namespace mocc
