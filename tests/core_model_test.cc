// Tests for the MOCC core model and API surface: the preference-sub-network
// actor-critic (shapes, gradient check, clone, serialization), the model zoo, the §5
// library API (Register / ReportStatus / GetSendingRate), the congestion-control
// adapter and the UDT/CCP datapath shims.
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "src/core/datapath.h"
#include "src/core/mocc_api.h"
#include "src/core/model_zoo.h"
#include "src/core/policy_spec.h"
#include "src/core/preference_model.h"

namespace mocc {
namespace {

MoccConfig SmallConfig() {
  MoccConfig config;
  config.history_len_eta = 4;
  config.pn_hidden = 8;
  config.pn_out = 8;
  config.trunk_hidden = {16, 8};
  return config;
}

TEST(PreferenceModelTest, ObservationDimIncludesWeightAndHistory) {
  const MoccConfig config = SmallConfig();
  Rng rng(1);
  PreferenceActorCritic model(config, &rng);
  EXPECT_EQ(model.obs_dim(), 3u + 3u * 4u);
}

TEST(PreferenceModelTest, ForwardShapes) {
  Rng rng(2);
  PreferenceActorCritic model(SmallConfig(), &rng);
  Matrix obs(6, model.obs_dim());
  obs.FillNormal(&rng, 0.5);
  Matrix mean;
  Matrix value;
  model.Forward(obs, &mean, &value);
  EXPECT_EQ(mean.rows(), 6u);
  EXPECT_EQ(mean.cols(), 1u);
  EXPECT_EQ(value.rows(), 6u);
  EXPECT_EQ(value.cols(), 1u);
}

TEST(PreferenceModelTest, OutputDependsOnWeightInput) {
  // The whole point of the PN (Figure 3): same network conditions, different
  // requirement -> different action.
  Rng rng(3);
  PreferenceActorCritic model(SmallConfig(), &rng);
  std::vector<double> obs_thr = {0.8, 0.1, 0.1};
  std::vector<double> obs_lat = {0.1, 0.8, 0.1};
  for (int i = 0; i < 4; ++i) {
    for (double v : {1.0, 1.0, 0.0}) {
      obs_thr.push_back(v);
      obs_lat.push_back(v);
    }
  }
  EXPECT_NE(model.ActionMean(obs_thr), model.ActionMean(obs_lat));
}

TEST(PreferenceModelTest, GradientsMatchFiniteDifference) {
  Rng rng(4);
  PreferenceActorCritic model(SmallConfig(), &rng);
  Matrix obs(3, model.obs_dim());
  obs.FillNormal(&rng, 0.5);

  auto loss = [&]() {
    Matrix mean;
    Matrix value;
    model.Forward(obs, &mean, &value);
    double l = 0.0;
    for (size_t i = 0; i < mean.size(); ++i) {
      l += 0.5 * mean.data()[i] * mean.data()[i];
    }
    for (size_t i = 0; i < value.size(); ++i) {
      l += 0.5 * value.data()[i] * value.data()[i];
    }
    return l;
  };

  model.ZeroGrad();
  Matrix mean;
  Matrix value;
  model.Forward(obs, &mean, &value);
  model.Backward(mean, value);

  double max_rel = 0.0;
  for (auto& p : model.Params()) {
    const size_t stride = std::max<size_t>(1, p.value->size() / 5);
    for (size_t k = 0; k < p.value->size(); k += stride) {
      double* w = &p.value->data()[k];
      const double orig = *w;
      const double eps = 1e-6;
      *w = orig + eps;
      const double lp = loss();
      *w = orig - eps;
      const double lm = loss();
      *w = orig;
      const double fd = (lp - lm) / (2.0 * eps);
      const double an = p.grad->data()[k];
      if (std::abs(fd) > 1e-10 || std::abs(an) > 1e-10) {
        max_rel = std::max(max_rel,
                           std::abs(fd - an) / std::max({1e-8, std::abs(fd), std::abs(an)}));
      }
    }
  }
  // log_std has no gradient path through Forward; it is excluded automatically since
  // both sides are ~0.
  EXPECT_LT(max_rel, 1e-5);
}

TEST(PreferenceModelTest, CloneMatchesAndIsIndependent) {
  Rng rng(5);
  PreferenceActorCritic model(SmallConfig(), &rng);
  auto clone = model.Clone();
  std::vector<double> obs(model.obs_dim(), 0.3);
  EXPECT_DOUBLE_EQ(model.ActionMean(obs), clone->ActionMean(obs));
  model.Params()[0].value->data()[0] += 0.5;
  EXPECT_NE(model.ActionMean(obs), clone->ActionMean(obs));
}

TEST(PreferenceModelTest, FileRoundTripPreservesBehaviour) {
  const MoccConfig config = SmallConfig();
  Rng rng(6);
  PreferenceActorCritic model(config, &rng);
  const std::string path = ::testing::TempDir() + "/mocc_model_roundtrip.bin";
  ASSERT_TRUE(model.SaveToFile(path));
  auto loaded = PreferenceActorCritic::LoadFromFile(path, config);
  ASSERT_NE(loaded, nullptr);
  std::vector<double> obs(model.obs_dim(), -0.2);
  EXPECT_DOUBLE_EQ(model.ActionMean(obs), loaded->ActionMean(obs));
  EXPECT_DOUBLE_EQ(model.log_std(), loaded->log_std());
}

TEST(PreferenceModelTest, LoadRejectsArchitectureMismatch) {
  const MoccConfig config = SmallConfig();
  Rng rng(7);
  PreferenceActorCritic model(config, &rng);
  const std::string path = ::testing::TempDir() + "/mocc_model_mismatch.bin";
  ASSERT_TRUE(model.SaveToFile(path));
  MoccConfig other = config;
  other.history_len_eta = 6;
  EXPECT_EQ(PreferenceActorCritic::LoadFromFile(path, other), nullptr);
}

TEST(PreferenceModelTest, LoadMissingFileReturnsNull) {
  EXPECT_EQ(PreferenceActorCritic::LoadFromFile("/nonexistent/never.bin", SmallConfig()),
            nullptr);
}

TEST(PreferenceModelTest, LoadRejectsTruncatedFile) {
  // Every truncation point of a valid model file must load as nullptr — never
  // crash, never return a half-initialized model.
  const MoccConfig config = SmallConfig();
  Rng rng(18);
  PreferenceActorCritic model(config, &rng);
  const std::string path = ::testing::TempDir() + "/mocc_model_trunc.bin";
  ASSERT_TRUE(model.SaveToFile(path));
  std::string full;
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    full = buf.str();
  }
  ASSERT_GT(full.size(), 32u);
  // Sample cut points across the file: inside the header, inside the config
  // fingerprint, and mid-way through the parameter payload.
  for (size_t cut : {size_t{4}, size_t{20}, full.size() / 4, full.size() / 2,
                     full.size() - 1}) {
    const std::string trunc_path = ::testing::TempDir() + "/mocc_model_trunc_cut.bin";
    std::ofstream out(trunc_path, std::ios::binary | std::ios::trunc);
    out.write(full.data(), static_cast<std::streamsize>(cut));
    out.close();
    EXPECT_EQ(PreferenceActorCritic::LoadFromFile(trunc_path, config), nullptr)
        << "truncation at byte " << cut << " of " << full.size();
  }
}

TEST(PreferenceModelTest, LoadRejectsCorruptLengthPrefix) {
  // Flip a length prefix to an absurd value: the loader must reject it cleanly
  // rather than attempt a multi-gigabyte allocation.
  const MoccConfig config = SmallConfig();
  Rng rng(19);
  PreferenceActorCritic model(config, &rng);
  const std::string path = ::testing::TempDir() + "/mocc_model_corrupt.bin";
  ASSERT_TRUE(model.SaveToFile(path));
  std::string full;
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    full = buf.str();
  }
  // Stamp 0xFF over a word in the middle of the payload; whichever field it
  // lands in (count, dimension, or value), the result must not be a crash.
  for (size_t i = full.size() / 2; i < full.size() / 2 + 8 && i < full.size(); ++i) {
    full[i] = static_cast<char>(0xFF);
  }
  const std::string corrupt_path = ::testing::TempDir() + "/mocc_model_corrupt_out.bin";
  {
    std::ofstream out(corrupt_path, std::ios::binary | std::ios::trunc);
    out.write(full.data(), static_cast<std::streamsize>(full.size()));
  }
  auto loaded = PreferenceActorCritic::LoadFromFile(corrupt_path, config);
  if (loaded != nullptr) {
    // If the flipped bytes landed in a value field the load can still succeed;
    // the model must at least be usable (finite action) — no torn state.
    std::vector<double> obs(loaded->obs_dim(), 0.1);
    (void)loaded->ActionMean(obs);
  }
}

TEST(ModelZooTest, TrainsOnceThenLoads) {
  const std::string dir = ::testing::TempDir() + "/mocc_zoo_test";
  std::filesystem::remove_all(dir);
  ModelZoo zoo(dir);
  const MoccConfig config = SmallConfig();
  int train_calls = 0;
  auto train = [&]() {
    ++train_calls;
    Rng rng(8);
    return std::make_shared<PreferenceActorCritic>(config, &rng);
  };
  auto first = zoo.GetOrTrainMocc("unit", config, train);
  auto second = zoo.GetOrTrainMocc("unit", config, train);
  ASSERT_NE(first, nullptr);
  ASSERT_NE(second, nullptr);
  EXPECT_EQ(train_calls, 1);
  std::vector<double> obs(first->obs_dim(), 0.1);
  EXPECT_DOUBLE_EQ(first->ActionMean(obs), second->ActionMean(obs));
}

std::shared_ptr<PreferenceActorCritic> FreshModel(const MoccConfig& config, uint64_t seed) {
  Rng rng(seed);
  return std::make_shared<PreferenceActorCritic>(config, &rng);
}

MonitorReport MakeReport(double thr_bps, double rtt_s, double loss, double dur = 0.05) {
  MonitorReport r;
  r.duration_s = dur;
  r.throughput_bps = thr_bps;
  r.send_rate_bps = thr_bps;
  r.packets_sent = static_cast<int64_t>(thr_bps * dur / 12000.0);
  r.packets_acked = r.packets_sent;
  r.avg_rtt_s = rtt_s;
  r.min_rtt_s = rtt_s;
  r.loss_rate = loss;
  return r;
}

TEST(MoccApiTest, RegisterSanitizesWeights) {
  MoccApi::Options options;
  options.config = SmallConfig();
  MoccApi api(FreshModel(options.config, 9), options);
  api.Register(WeightVector(1.0, 0.0, 0.0));  // paper's bulk-transfer preference
  EXPECT_TRUE(api.registered_weight().IsValid());
  EXPECT_TRUE(api.is_registered());
}

TEST(MoccApiTest, GetSendingRateStartsAtInitialRate) {
  MoccApi::Options options;
  options.config = SmallConfig();
  options.initial_rate_bps = 3e6;
  MoccApi api(FreshModel(options.config, 10), options);
  EXPECT_DOUBLE_EQ(api.GetSendingRate(), 3e6);
}

TEST(MoccApiTest, ReportStatusMovesRateWithinOneEq1Step) {
  MoccApi::Options options;
  options.config = SmallConfig();
  options.initial_rate_bps = 2e6;
  MoccApi api(FreshModel(options.config, 11), options);
  api.Register(ThroughputObjective());
  const double before = api.GetSendingRate();
  api.ReportStatus(MakeReport(2e6, 0.04, 0.0));
  const double after = api.GetSendingRate();
  EXPECT_EQ(api.inference_count(), 1);
  EXPECT_NE(after, before);
  // One Eq. (1) step with alpha = action_scale and untrained |a| bounded loosely.
  EXPECT_LT(after, before * 2.0);
  EXPECT_GT(after, before / 2.0);
}

TEST(MoccApiTest, RateStaysWithinConfiguredBounds) {
  MoccApi::Options options;
  options.config = SmallConfig();
  options.min_rate_bps = 1e6;
  options.max_rate_bps = 4e6;
  options.initial_rate_bps = 2e6;
  MoccApi api(FreshModel(options.config, 12), options);
  api.Register(LatencyObjective());
  for (int i = 0; i < 500; ++i) {
    api.ReportStatus(MakeReport(2e6, 0.08, 0.01));
    EXPECT_GE(api.GetSendingRate(), 1e6);
    EXPECT_LE(api.GetSendingRate(), 4e6);
  }
}

TEST(MoccApiTest, EstimatorsTrackObservations) {
  MoccApi::Options options;
  options.config = SmallConfig();
  MoccApi api(FreshModel(options.config, 13), options);
  api.Register(BalancedObjective());
  api.ReportStatus(MakeReport(5e6, 0.05, 0.0));
  api.ReportStatus(MakeReport(8e6, 0.03, 0.0));
  EXPECT_DOUBLE_EQ(api.EstimatedCapacityBps(), 8e6);
  EXPECT_DOUBLE_EQ(api.EstimatedBaseRttS(), 0.03);
  EXPECT_GT(api.LastReward(), 0.0);
  EXPECT_LE(api.LastReward(), 1.0);
}

TEST(MoccApiTest, ReRegisterSwitchesObjectiveOnTheFly) {
  MoccApi::Options options;
  options.config = SmallConfig();
  MoccApi api(FreshModel(options.config, 14), options);
  api.Register(ThroughputObjective());
  api.ReportStatus(MakeReport(5e6, 0.05, 0.0));
  api.Register(LatencyObjective());
  EXPECT_TRUE(api.registered_weight().AlmostEquals(LatencyObjective(), 1e-9));
  api.ReportStatus(MakeReport(5e6, 0.05, 0.0));  // must not crash; history carries over
  EXPECT_EQ(api.inference_count(), 2);
}

TEST(MoccCcTest, AdapterUsesWeightPrefix) {
  const MoccConfig config = SmallConfig();
  auto model = FreshModel(config, 15);
  auto cc_thr = PolicySpec().WithModel(model).WithName("MOCC-T").MakeController(
      ThroughputObjective());
  auto cc_lat = PolicySpec().WithModel(model).WithName("MOCC-L").MakeController(
      LatencyObjective());
  EXPECT_EQ(cc_thr->Name(), "MOCC-T");
  EXPECT_EQ(cc_thr->Mode(), CcMode::kRateBased);
  // Same report stream, different weights -> (generally) different rates.
  const MonitorReport report = MakeReport(3e6, 0.05, 0.01);
  cc_thr->OnMonitorInterval(report);
  cc_lat->OnMonitorInterval(report);
  EXPECT_NE(cc_thr->PacingRateBps(), cc_lat->PacingRateBps());
}

TEST(DatapathTest, UdtShimInvokesControlEveryTick) {
  MoccApi::Options options;
  options.config = SmallConfig();
  auto api = std::make_shared<MoccApi>(FreshModel(options.config, 16), options);
  api->Register(ThroughputObjective());
  UdtShimDatapath udt(api);
  for (int i = 0; i < 12; ++i) {
    udt.OnNetworkTick(MakeReport(2e6, 0.04, 0.0));
  }
  EXPECT_EQ(udt.control_invocations(), 12);
  EXPECT_GT(udt.SendingRateBps(), 0.0);
}

TEST(DatapathTest, CcpShimBatchesFeedback) {
  MoccApi::Options options;
  options.config = SmallConfig();
  auto api = std::make_shared<MoccApi>(FreshModel(options.config, 17), options);
  api->Register(ThroughputObjective());
  CcpShimDatapath ccp(api, /*batch_size=*/4);
  for (int i = 0; i < 12; ++i) {
    ccp.OnNetworkTick(MakeReport(2e6, 0.04, 0.0));
  }
  EXPECT_EQ(ccp.control_invocations(), 3);  // 12 ticks / batch of 4
}

TEST(DatapathTest, AggregateReportsWeightsByDuration) {
  MonitorReport a = MakeReport(2e6, 0.04, 0.0, 0.1);
  MonitorReport b = MakeReport(6e6, 0.08, 0.0, 0.1);
  const MonitorReport reports[] = {a, b};
  const MonitorReport agg = CcpShimDatapath::AggregateReports(reports, 2);
  EXPECT_NEAR(agg.duration_s, 0.2, 1e-12);
  EXPECT_NEAR(agg.throughput_bps, 4e6, 1e3);
  EXPECT_NEAR(agg.avg_rtt_s, 0.06, 1e-9);
  EXPECT_EQ(agg.packets_sent, a.packets_sent + b.packets_sent);
}

TEST(DatapathTest, AggregateComputesLossOverWholeBatch) {
  MonitorReport a = MakeReport(2e6, 0.04, 0.0, 0.1);
  a.packets_acked = 90;
  a.packets_lost = 10;
  MonitorReport b = a;
  b.packets_lost = 30;
  b.packets_acked = 70;
  const MonitorReport reports[] = {a, b};
  const MonitorReport agg = CcpShimDatapath::AggregateReports(reports, 2);
  EXPECT_NEAR(agg.loss_rate, 40.0 / 200.0, 1e-9);
}

}  // namespace
}  // namespace mocc
