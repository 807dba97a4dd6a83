// The serving-layer contract suite (`ctest -L serving`): batched float32
// inference must be BIT-IDENTICAL to the sequential single-row path at every
// level — the MatMulBiasInto multi-row tiling, MlpT::ForwardBatchRows, the
// InferencePolicy batch API — and both deployment shapes (a many-connection
// ServingEngine and per-flow RlRateControllers, which are one-connection
// engines) must decide every connection exactly as an independent reference
// built from the training-side primitives does on the same reports (float32,
// double, int8, guarded, ECN-aware and Aurora-shaped variants). Plus slab
// lifecycle determinism (attach/detach/reattach, stale-handle rejection),
// deadline-wheel same-tick batching, rejection of malformed monitor reports,
// and the InferencePolicy single-thread contract.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/baselines/aurora.h"
#include "src/baselines/cubic.h"
#include "src/baselines/rl_cc.h"
#include "src/common/rng.h"
#include "src/core/mocc_api.h"
#include "src/core/mocc_config.h"
#include "src/core/policy_spec.h"
#include "src/core/preference_model.h"
#include "src/envs/cc_env.h"
#include "src/envs/mi_history.h"
#include "src/netsim/link_params.h"
#include "src/nn/matrix.h"
#include "src/nn/mlp.h"
#include "src/rl/actor_critic.h"
#include "src/rl/guarded_policy.h"
#include "src/rl/inference_policy.h"
#include "src/serving/serving_engine.h"

namespace mocc {
namespace {

// Deterministic per-(flow, round) report stream, independent of the decided
// rate so serving and per-flow controllers see byte-identical inputs.
MonitorReport MakeReport(int flow, int round) {
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

WeightVector FlowWeight(int flow) {
  static const WeightVector kMix[] = {{0.8, 0.1, 0.1},
                                      {1.0 / 3, 1.0 / 3, 1.0 / 3},
                                      {0.1, 0.8, 0.1},
                                      {0.1, 0.1, 0.8}};
  return kMix[flow % 4];
}

template <typename T>
void FillRandom(MatrixT<T>* m, Rng* rng) {
  for (size_t i = 0; i < m->rows() * m->cols(); ++i) {
    m->data()[i] = static_cast<T>(rng->Uniform(-1.0, 1.0));
  }
}

// Row counts covering every row-tile remainder of the multi-row kernel (1-,
// 2- and 4-row tiles, on every tier) plus a serving-sized batch.
const size_t kTileRowCounts[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 33, 256};

// --- 1. Kernel level: batched MatMulBiasInto == per-row results -------------

template <typename T>
void ExpectBatchRowsMatchSingleRows(uint64_t seed) {
  Rng rng(seed);
  // Odd shapes exercise the column-tile tails (masked or scalar); 64 and 32
  // outputs are the trunk's 2 x 64 / 4 x 32 tiles; n == 1 is the row kernel's
  // lane-split head.
  for (const size_t m : kTileRowCounts) {
    for (const size_t k : {size_t(5), size_t(17), size_t(33)}) {
      for (const size_t n : {size_t(1), size_t(7), size_t(24), size_t(32), size_t(64)}) {
        MatrixT<T> a(m, k), b(k, n), bias(1, n), batch(m, n);
        FillRandom(&a, &rng);
        FillRandom(&b, &rng);
        FillRandom(&bias, &rng);
        MatMulBiasInto(a, b, bias, &batch);
        std::vector<T> out(n);
        for (size_t r = 0; r < m; ++r) {
          // The single-row kernel every ForwardRow runs.
          RowMatVecBias(a.RowPtr(r), b.data(), bias.data(), out.data(), k, n);
          for (size_t c = 0; c < n; ++c) {
            ASSERT_EQ(batch(r, c), out[c]) << "m=" << m << " k=" << k << " n=" << n
                                           << " row=" << r << " col=" << c;
          }
        }
      }
    }
  }
}

TEST(ServingKernelTest, MatMulBiasIntoBatchRowsBitIdenticalToSingleRows) {
  ExpectBatchRowsMatchSingleRows<float>(7);
  ExpectBatchRowsMatchSingleRows<double>(8);
}

// --- 2. Network level: ForwardBatchRows == ForwardRow per row ---------------

template <typename T>
void ExpectForwardBatchRowsMatchForwardRow(const std::vector<size_t>& dims,
                                           uint64_t seed) {
  Rng rng(seed);
  Mlp net_d(dims, Activation::kTanh, Activation::kIdentity, &rng);
  MlpT<T> net;
  net.CastFrom(net_d);
  const size_t in_dim = dims.front();
  const size_t out_dim = dims.back();
  for (const size_t rows : kTileRowCounts) {
    std::vector<T> in(rows * in_dim);
    for (T& v : in) {
      v = static_cast<T>(rng.Uniform(-2.0, 2.0));
    }
    std::vector<T> batch_out(rows * out_dim);
    net.ForwardBatchRows(in.data(), rows, batch_out.data());
    std::vector<T> row_out(out_dim);
    for (size_t r = 0; r < rows; ++r) {
      net.ForwardRow(in.data() + r * in_dim, row_out.data());
      for (size_t c = 0; c < out_dim; ++c) {
        ASSERT_EQ(batch_out[r * out_dim + c], row_out[c])
            << "rows=" << rows << " row " << r << " col " << c;
      }
    }
  }
}

TEST(ServingKernelTest, MlpForwardBatchRowsBitIdenticalToForwardRow) {
  // An odd-width net (column tails everywhere) and the Figure-3 trunk shape.
  ExpectForwardBatchRowsMatchForwardRow<float>({9, 17, 8, 2}, 11);
  ExpectForwardBatchRowsMatchForwardRow<float>({46, 64, 32, 1}, 12);
  ExpectForwardBatchRowsMatchForwardRow<double>({9, 17, 8, 2}, 13);
  ExpectForwardBatchRowsMatchForwardRow<double>({46, 64, 32, 1}, 14);
}

// --- 3. Policy level: ActionMeansF32 == sequential ActionMeanF32 ------------

TEST(ServingPolicyTest, ActionMeansF32BitIdenticalToSequentialSingleRows) {
  MoccConfig config;
  Rng rng(13);
  PreferenceActorCritic model(config, &rng);
  std::unique_ptr<InferencePolicy> batch_policy = model.MakeFloat32Policy();
  std::unique_ptr<InferencePolicy> seq_policy = model.MakeFloat32Policy();
  ASSERT_NE(batch_policy, nullptr);
  const size_t obs_dim = model.obs_dim();

  // 8 rows spanning 3 distinct weight prefixes, grouped like the engine's
  // prefix sort — the batch path's rolling PN cache must then follow exactly
  // the state a fresh replica evolves through sequentially.
  constexpr size_t kRows = 8;
  std::vector<float> obs(kRows * obs_dim);
  for (size_t r = 0; r < kRows; ++r) {
    const WeightVector w = FlowWeight(static_cast<int>(r) / 3);
    float* row = obs.data() + r * obs_dim;
    row[0] = static_cast<float>(w.thr);
    row[1] = static_cast<float>(w.lat);
    row[2] = static_cast<float>(w.loss);
    for (size_t k = 3; k < obs_dim; ++k) {
      row[k] = static_cast<float>(rng.Uniform(0.0, 2.0));
    }
  }
  std::vector<float> batch_means(kRows);
  batch_policy->ActionMeansF32(obs.data(), kRows, batch_means.data());
  for (size_t r = 0; r < kRows; ++r) {
    const float seq = seq_policy->ActionMeanF32(obs.data() + r * obs_dim);
    EXPECT_EQ(batch_means[r], seq) << "row " << r;
  }
}

TEST(ServingPolicyTest, UnsortedPrefixBatchBitIdenticalToSingleRows) {
  // Prefixes alternating row by row: every layer-0 run of the batch walk has
  // length 1, so each row refreshes the PN cache and seeds from a different
  // l0_partial. The batch must still equal n = 1 calls on a fresh replica,
  // with the same number of PN recomputes.
  MoccConfig config;
  Rng rng(17);
  PreferenceActorCritic model(config, &rng);
  std::unique_ptr<InferencePolicy> batch_policy = model.MakeFloat32Policy();
  std::unique_ptr<InferencePolicy> seq_policy = model.MakeFloat32Policy();
  auto* batch_pref = dynamic_cast<PreferenceFloat32Policy*>(batch_policy.get());
  auto* seq_pref = dynamic_cast<PreferenceFloat32Policy*>(seq_policy.get());
  ASSERT_NE(batch_pref, nullptr);
  ASSERT_NE(seq_pref, nullptr);
  const size_t obs_dim = model.obs_dim();
  for (const size_t rows : kTileRowCounts) {
    std::vector<float> obs(rows * obs_dim);
    for (size_t r = 0; r < rows; ++r) {
      // Mostly alternating, with an occasional repeat so short runs appear too.
      const WeightVector w = FlowWeight(static_cast<int>(r % 7 == 6 ? r - 1 : r));
      float* row = obs.data() + r * obs_dim;
      row[0] = static_cast<float>(w.thr);
      row[1] = static_cast<float>(w.lat);
      row[2] = static_cast<float>(w.loss);
      for (size_t k = 3; k < obs_dim; ++k) {
        row[k] = static_cast<float>(rng.Uniform(0.0, 2.0));
      }
    }
    std::vector<float> batch_means(rows);
    batch_policy->ActionMeansF32(obs.data(), rows, batch_means.data());
    for (size_t r = 0; r < rows; ++r) {
      float seq = 0.0f;
      seq_policy->ActionMeansF32(obs.data() + r * obs_dim, 1, &seq);
      ASSERT_EQ(batch_means[r], seq) << "rows=" << rows << " row " << r;
    }
    EXPECT_EQ(batch_pref->pn_recompute_count(), seq_pref->pn_recompute_count())
        << "rows=" << rows;
  }
}

TEST(ServingPolicyTest, PnRecomputesOncePerDistinctPrefixInSortedBatch) {
  MoccConfig config;
  Rng rng(13);
  PreferenceActorCritic model(config, &rng);
  std::unique_ptr<InferencePolicy> policy = model.MakeFloat32Policy();
  auto* pref = dynamic_cast<PreferenceFloat32Policy*>(policy.get());
  ASSERT_NE(pref, nullptr);
  const size_t obs_dim = model.obs_dim();

  constexpr size_t kRows = 9;  // 3 groups of 3, prefix-sorted
  std::vector<float> obs(kRows * obs_dim);
  for (size_t r = 0; r < kRows; ++r) {
    const WeightVector w = FlowWeight(static_cast<int>(r) / 3);
    float* row = obs.data() + r * obs_dim;
    row[0] = static_cast<float>(w.thr);
    row[1] = static_cast<float>(w.lat);
    row[2] = static_cast<float>(w.loss);
    for (size_t k = 3; k < obs_dim; ++k) {
      row[k] = 1.0f;
    }
  }
  std::vector<float> means(kRows);
  policy->ActionMeansF32(obs.data(), kRows, means.data());
  EXPECT_EQ(pref->pn_recompute_count(), 3);
  // Re-running the same batch rolls the cache through all three prefixes again
  // (the cache ends the batch holding the LAST group's features).
  policy->ActionMeansF32(obs.data(), kRows, means.data());
  EXPECT_EQ(pref->pn_recompute_count(), 6);
}

// --- 4. Service level: engine == per-flow controllers == reference ---------

// The per-flow decision procedure, built straight from the training-side
// primitives and sharing no code with src/serving/: MiHistoryTracker's own row,
// ActorCritic / InferencePolicy::ActionMean on the [prefix | history] vector,
// a GuardedPolicy with a warm-standby CUBIC, and CcEnv::ApplyRateAction plus
// the rate clamp. Both deployment shapes must reproduce it bit for bit.
class ReferenceController {
 public:
  ReferenceController(std::shared_ptr<ActorCritic> model,
                      const RlRateController::Options& options)
      : model_(std::move(model)),
        options_(options),
        history_(options.history_len, options.include_ecn),
        rate_bps_(options.initial_rate_bps) {
    if (options_.precision == Precision::kFloat32) {
      replica_ = model_->MakeFloat32Policy();
    } else if (options_.precision == Precision::kInt8) {
      replica_ = model_->MakeInt8Policy();
    }
    if (options_.guard) {
      GuardedPolicy::Options guard_options = options_.guard_options;
      guard_options.min_rate_bps = options_.min_rate_bps;
      guard_options.max_rate_bps = options_.max_rate_bps;
      guard_ = std::make_unique<GuardedPolicy>(guard_options);
      fallback_ = std::make_unique<CubicCc>();
    }
  }

  void OnMonitorInterval(const MonitorReport& report) {
    if (fallback_ != nullptr) {
      fallback_->OnMonitorInterval(report);
    }
    history_.Push(report);
    if (guard_ != nullptr && !guard_->BeginInterval()) {
      rate_bps_ = FallbackRateBps(report);
      return;
    }
    std::vector<double> obs = options_.observation_prefix;
    history_.AppendObservation(&obs);
    const double action =
        replica_ != nullptr ? replica_->ActionMean(obs) : model_->ActionMean(obs);
    ++inferences_;
    const double proposed =
        CcEnv::ApplyRateAction(rate_bps_, action, options_.action_scale);
    if (guard_ != nullptr && !guard_->ValidateDecision(action, proposed, rate_bps_)) {
      rate_bps_ = FallbackRateBps(report);
      return;
    }
    rate_bps_ = std::clamp(proposed, options_.min_rate_bps, options_.max_rate_bps);
  }

  double rate_bps() const { return rate_bps_; }
  int64_t inferences() const { return inferences_; }
  const GuardedPolicy* guard() const { return guard_.get(); }

 private:
  double FallbackRateBps(const MonitorReport& report) const {
    const double rtt_s = std::max({report.avg_rtt_s, report.min_rtt_s, 1e-3});
    const double rate =
        fallback_->CwndPackets() * static_cast<double>(kDefaultPacketSizeBits) / rtt_s;
    return std::clamp(rate, options_.min_rate_bps, options_.max_rate_bps);
  }

  std::shared_ptr<ActorCritic> model_;
  std::unique_ptr<InferencePolicy> replica_;  // null = double path
  RlRateController::Options options_;
  MiHistoryTracker history_;
  double rate_bps_;
  int64_t inferences_ = 0;
  std::unique_ptr<GuardedPolicy> guard_;
  std::unique_ptr<CongestionControl> fallback_;
};

// Flow f's observation prefix at the model's weight dimension (0 for Aurora).
std::vector<double> FlowPrefix(int flow, size_t weight_dim) {
  if (weight_dim == 0) {
    return {};
  }
  const WeightVector w = FlowWeight(flow).Sanitized();
  return {w.thr, w.lat, w.loss};
}

// Feeds kFlows identical report streams to three deciders per flow — the
// reference, a per-flow RlRateController and one connection of a shared
// many-connection ServingEngine — and requires every rate, decision count and
// trip count to agree exactly. `options` carries the decision parameters; its
// prefix length sets the weight dimension, the prefix itself is per flow.
void ExpectServingMatchesReference(std::shared_ptr<ActorCritic> model,
                                   RlRateController::Options options) {
  constexpr int kFlows = 12;
  constexpr int kRounds = 30;
  const size_t weight_dim = options.observation_prefix.size();
  ServingEngine engine(model, options, MoccServing::Options{});
  std::vector<ReferenceController> refs;
  std::vector<std::unique_ptr<RlRateController>> ccs;
  std::vector<ServingConnId> conns;
  MoccServing::ConnectionOptions copts;
  copts.initial_rate_bps = options.initial_rate_bps;
  for (int f = 0; f < kFlows; ++f) {
    options.observation_prefix = FlowPrefix(f, weight_dim);
    refs.emplace_back(model, options);
    ccs.push_back(std::make_unique<RlRateController>(model, options));
    conns.push_back(engine.Attach(options.observation_prefix.data(), copts));
  }
  for (int round = 0; round < kRounds; ++round) {
    for (int f = 0; f < kFlows; ++f) {
      MonitorReport report = MakeReport(f, round);
      report.packets_marked = (round + f) % 4 == 0 ? 3 : 0;
      report.ecn_rate = static_cast<double>(report.packets_marked) / report.packets_acked;
      refs[f].OnMonitorInterval(report);
      ccs[f]->OnMonitorInterval(report);
      ASSERT_TRUE(engine.SubmitReport(conns[f], report));
    }
    engine.PollPending();
    for (int f = 0; f < kFlows; ++f) {
      ASSERT_EQ(ccs[f]->PacingRateBps(), refs[f].rate_bps())
          << "flow " << f << " round " << round;
      ASSERT_EQ(engine.RateBps(conns[f]), refs[f].rate_bps())
          << "flow " << f << " round " << round;
    }
  }
  for (int f = 0; f < kFlows; ++f) {
    EXPECT_EQ(ccs[f]->inference_count(), refs[f].inferences()) << "flow " << f;
    EXPECT_EQ(engine.DecisionCount(conns[f]), refs[f].inferences()) << "flow " << f;
    if (options.guard) {
      ASSERT_NE(engine.Guard(conns[f]), nullptr);
      ASSERT_NE(ccs[f]->guard(), nullptr);
      EXPECT_EQ(engine.Guard(conns[f])->trip_count(), refs[f].guard()->trip_count())
          << "flow " << f;
      EXPECT_EQ(ccs[f]->guard()->trip_count(), refs[f].guard()->trip_count())
          << "flow " << f;
    } else {
      EXPECT_EQ(engine.Guard(conns[f]), nullptr);
      EXPECT_EQ(ccs[f]->guard(), nullptr);
    }
  }
}

// A MOCC model's decision parameters through the PolicySpec mapping that
// MakeController and CreateService share.
void ExpectMoccServingMatchesReference(const MoccConfig& config, Precision precision,
                                       bool guard) {
  Rng rng(17);
  auto model = std::make_shared<PreferenceActorCritic>(config, &rng);
  const RlRateController::Options options =
      PolicySpec()
          .WithModel(model)
          .WithPrecision(precision)
          .WithGuard(guard)
          .ControllerOptions(model->config(), FlowWeight(0), 2e6);
  ExpectServingMatchesReference(model, options);
}

TEST(ServingEngineTest, Float32BatchMatchesPerFlowControllersBitExactly) {
  ExpectMoccServingMatchesReference(MoccConfig{}, Precision::kFloat32, /*guard=*/false);
}

TEST(ServingEngineTest, DoublePathMatchesPerFlowControllersBitExactly) {
  ExpectMoccServingMatchesReference(MoccConfig{}, Precision::kDouble, /*guard=*/false);
}

TEST(ServingEngineTest, GuardedFloat32MatchesPerFlowControllersBitExactly) {
  ExpectMoccServingMatchesReference(MoccConfig{}, Precision::kFloat32, /*guard=*/true);
}

TEST(ServingEngineTest, Int8MatchesReferenceBitExactly) {
  ExpectMoccServingMatchesReference(MoccConfig{}, Precision::kInt8, /*guard=*/false);
}

TEST(ServingEngineTest, EcnAwareModelMatchesReferenceBitExactly) {
  MoccConfig config;
  config.ecn_signal = true;
  ExpectMoccServingMatchesReference(config, Precision::kFloat32, /*guard=*/false);
}

TEST(ServingEngineTest, AuroraShapedModelMatchesReferenceBitExactly) {
  // An empty prefix: weight dimension 0, one interned (empty) prefix.
  Rng rng(31);
  constexpr size_t kEta = 10;
  auto model = std::make_shared<MlpActorCritic>(AuroraObsDim(kEta), &rng);
  RlRateController::Options options;
  options.history_len = kEta;
  options.precision = Precision::kFloat32;
  ExpectServingMatchesReference(model, options);
  options.precision = Precision::kDouble;
  ExpectServingMatchesReference(model, options);
}

// --- 5. Slab lifecycle: attach/detach/reattach determinism ------------------

TEST(ServingEngineTest, ReattachAfterChurnReproducesIdenticalRateSequence) {
  MoccConfig config;
  Rng rng(19);
  auto model = std::make_shared<PreferenceActorCritic>(config, &rng);
  PolicySpec spec;
  spec.WithModel(model).WithPrecision(Precision::kFloat32);
  std::unique_ptr<MoccServing> service = CreateService(spec);
  ASSERT_NE(service, nullptr);

  constexpr int kRounds = 20;
  auto run_flow = [&](ServingConnId conn) {
    std::vector<double> rates;
    for (int round = 0; round < kRounds; ++round) {
      EXPECT_TRUE(service->SubmitReport(conn, MakeReport(0, round)));
      service->RatePoll();
      rates.push_back(service->RateBps(conn));
    }
    return rates;
  };

  const ServingConnId a = service->AttachConnection(FlowWeight(0));
  const std::vector<double> baseline = run_flow(a);

  // Churn: detach a sibling so its slot recycles, land a new connection in the
  // recycled slot, then re-run the same stream on a FRESH attachment of the
  // original objective — per-connection state must be fully reinitialized.
  const ServingConnId b = service->AttachConnection(FlowWeight(1));
  EXPECT_TRUE(service->DetachConnection(b));
  const ServingConnId c = service->AttachConnection(FlowWeight(2));
  EXPECT_EQ(c.slot, b.slot);  // slot recycled...
  EXPECT_NE(c.generation, b.generation);  // ...under a new generation
  EXPECT_TRUE(service->DetachConnection(a));
  const ServingConnId a2 = service->AttachConnection(FlowWeight(0));
  const std::vector<double> replay = run_flow(a2);
  ASSERT_EQ(replay.size(), baseline.size());
  for (size_t i = 0; i < baseline.size(); ++i) {
    EXPECT_EQ(replay[i], baseline[i]) << "round " << i;
  }
}

TEST(ServingEngineTest, StaleHandlesAreRejectedEverywhere) {
  MoccConfig config;
  Rng rng(19);
  auto model = std::make_shared<PreferenceActorCritic>(config, &rng);
  PolicySpec spec;
  spec.WithModel(model).WithPrecision(Precision::kFloat32).WithGuard(true);
  std::unique_ptr<MoccServing> service = CreateService(spec);
  ASSERT_NE(service, nullptr);

  const ServingConnId id = service->AttachConnection(FlowWeight(0));
  EXPECT_TRUE(service->SubmitReport(id, MakeReport(0, 0)));
  service->RatePoll();
  EXPECT_TRUE(service->DetachConnection(id));
  EXPECT_EQ(service->attached(), 0u);

  // Every entry point must reject the stale generation — including after the
  // slot is recycled by a new attachment.
  const ServingConnId fresh = service->AttachConnection(FlowWeight(1));
  EXPECT_EQ(fresh.slot, id.slot);
  EXPECT_FALSE(service->SubmitReport(id, MakeReport(0, 1)));
  EXPECT_FALSE(service->SwitchObjective(id, FlowWeight(2)));
  EXPECT_FALSE(service->DetachConnection(id));
  EXPECT_EQ(service->RateBps(id), 0.0);
  EXPECT_EQ(service->DecisionCount(id), 0);
  EXPECT_EQ(service->Guard(id), nullptr);
  EXPECT_EQ(service->attached(), 1u);
  // An un-attached default handle is stale too.
  EXPECT_FALSE(service->SubmitReport(ServingConnId{}, MakeReport(0, 0)));
}

// --- 6. Deadline wheel: same-tick expiries decide as one batch --------------

TEST(ServingWheelTest, SameTickExpiriesBatchAndCadencesHold) {
  MoccConfig config;
  Rng rng(23);
  auto model = std::make_shared<PreferenceActorCritic>(config, &rng);
  PolicySpec spec;
  spec.WithModel(model).WithPrecision(Precision::kFloat32);
  MoccServing::Options sopts;
  sopts.tick_s = 0.010;
  std::unique_ptr<MoccServing> service = CreateService(spec, sopts);
  ASSERT_NE(service, nullptr);

  // 4 connections on a 20 ms MI and 2 on a 30 ms MI: expiries at 20/40/60 ms
  // and 30/60 ms — at 60 ms all six land in the same tick and must decide as
  // ONE batch of 6.
  std::vector<ServingConnId> fast, slow;
  for (int f = 0; f < 6; ++f) {
    MoccServing::ConnectionOptions copts;
    copts.mi_duration_s = f < 4 ? 0.020 : 0.030;
    copts.start_time_s = 0.0;
    (f < 4 ? fast : slow).push_back(service->AttachConnection(FlowWeight(f), copts));
  }
  AckInfo ack;
  ack.rtt_s = 0.045;
  for (int tick = 1; tick <= 6; ++tick) {
    for (const ServingConnId& id : fast) {
      service->OnPacketSent(id, 2);
      service->OnAck(id, ack);
    }
    for (const ServingConnId& id : slow) {
      service->OnPacketSent(id, 2);
      service->OnAck(id, ack);
    }
    service->RatePoll(tick * 0.010);
  }
  for (const ServingConnId& id : fast) {
    EXPECT_EQ(service->DecisionCount(id), 3);  // 20, 40, 60 ms
  }
  for (const ServingConnId& id : slow) {
    EXPECT_EQ(service->DecisionCount(id), 2);  // 30, 60 ms
  }
  const MoccServing::Stats& stats = service->stats();
  EXPECT_EQ(stats.decisions, 4 * 3 + 2 * 2);
  EXPECT_EQ(stats.max_batch, 6);  // the coincident 60 ms tick
  // Self-timed connections own their clock: external reports are rejected.
  EXPECT_FALSE(service->SubmitReport(fast[0], MakeReport(0, 0)));
}

// --- 7. Malformed monitor reports: rejected at the single ingestion point ---

// `r` with one field made malformed, drawn from `rng`: NaN, +inf, -inf or a
// negative value in a double field (start_time_s may be negative, so only
// non-finite values there), or a negative count.
MonitorReport Corrupt(MonitorReport r, Rng* rng) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  double* const fields[] = {&r.duration_s, &r.send_rate_bps, &r.throughput_bps,
                            &r.avg_rtt_s,  &r.min_rtt_s,     &r.loss_rate,
                            &r.ecn_rate,   &r.start_time_s};
  int64_t* const counts[] = {&r.packets_sent, &r.packets_acked, &r.packets_lost,
                             &r.packets_marked};
  const int64_t pick = rng->UniformInt(0, 11);
  if (pick >= 8) {
    *counts[pick - 8] = -rng->UniformInt(1, 1000);
    return r;
  }
  const double bad[] = {std::numeric_limits<double>::quiet_NaN(), kInf, -kInf,
                        -rng->Uniform(1e-9, 1e3)};
  *fields[pick] = bad[rng->UniformInt(0, pick == 7 ? 2 : 3)];
  return r;
}

TEST(ServingReportTest, MalformedReportsAreRejectedAndLeaveNoTrace) {
  MoccConfig config;
  Rng model_rng(37);
  auto model = std::make_shared<PreferenceActorCritic>(config, &model_rng);
  PolicySpec spec;
  spec.WithModel(model).WithPrecision(Precision::kFloat32);
  const WeightVector w = FlowWeight(0);

  // Clean twins next to dirty twins of every deployment surface: a service
  // connection fed through SubmitReport, one fed through PostReport, a per-flow
  // controller and the paper facade.
  std::unique_ptr<MoccServing> service = CreateService(spec);
  ASSERT_NE(service, nullptr);
  const ServingConnId clean = service->AttachConnection(w);
  const ServingConnId dirty = service->AttachConnection(w);
  const ServingConnId posted = service->AttachConnection(w);
  std::unique_ptr<RlRateController> cc_clean = spec.MakeController(w);
  std::unique_ptr<RlRateController> cc_dirty = spec.MakeController(w);
  MoccApi api_clean(model);
  MoccApi api_dirty(model);
  api_clean.Register(w);
  api_dirty.Register(w);

  Rng rng(41);
  int64_t posted_bad = 0;
  for (int round = 0; round < 40; ++round) {
    MonitorReport good = MakeReport(0, round);
    good.start_time_s = 0.05 * round;
    if (round == 7) {
      good.duration_s = 0.0;  // accepted: the gradient term ignores it
    }
    ASSERT_TRUE(ValidMonitorReport(good));
    // The first round always leads with bad reports (a poisoned first RTT
    // sample is the worst case); later rounds with probability one half.
    const int64_t bad_count = round == 0 || rng.Bernoulli(0.5) ? rng.UniformInt(1, 3) : 0;
    for (int64_t b = 0; b < bad_count; ++b) {
      const MonitorReport bad = Corrupt(good, &rng);
      ASSERT_FALSE(ValidMonitorReport(bad)) << "round " << round;
      EXPECT_FALSE(service->SubmitReport(dirty, bad)) << "round " << round;
      ASSERT_TRUE(service->PostReport(posted, bad));
      ++posted_bad;
      // A rejected report is no decision: the rate, the decision count, and the
      // facade's estimators and reward stay as they were.
      const double cc_rate = cc_dirty->PacingRateBps();
      const int64_t cc_decisions = cc_dirty->inference_count();
      cc_dirty->OnMonitorInterval(bad);
      EXPECT_EQ(cc_dirty->PacingRateBps(), cc_rate);
      EXPECT_EQ(cc_dirty->inference_count(), cc_decisions);
      const double api_rate = api_dirty.GetSendingRate();
      const double capacity = api_dirty.EstimatedCapacityBps();
      const double base_rtt = api_dirty.EstimatedBaseRttS();
      const double reward = api_dirty.LastReward();
      api_dirty.ReportStatus(bad);
      EXPECT_EQ(api_dirty.GetSendingRate(), api_rate);
      EXPECT_EQ(api_dirty.EstimatedCapacityBps(), capacity);
      EXPECT_EQ(api_dirty.EstimatedBaseRttS(), base_rtt);
      EXPECT_EQ(api_dirty.LastReward(), reward);
      EXPECT_EQ(api_dirty.inference_count(), round);
    }
    // The posted bad reports are dropped at the drain, so the connection is
    // free to take this round's good report.
    service->RatePoll();
    ASSERT_EQ(service->stats().ring_dropped, posted_bad);
    ASSERT_TRUE(service->SubmitReport(clean, good));
    ASSERT_TRUE(service->SubmitReport(dirty, good));
    ASSERT_TRUE(service->PostReport(posted, good));
    service->RatePoll();
    cc_clean->OnMonitorInterval(good);
    cc_dirty->OnMonitorInterval(good);
    api_clean.ReportStatus(good);
    api_dirty.ReportStatus(good);

    ASSERT_EQ(service->RateBps(dirty), service->RateBps(clean)) << "round " << round;
    ASSERT_EQ(service->RateBps(posted), service->RateBps(clean)) << "round " << round;
    ASSERT_EQ(cc_dirty->PacingRateBps(), cc_clean->PacingRateBps()) << "round " << round;
    ASSERT_EQ(api_dirty.GetSendingRate(), api_clean.GetSendingRate()) << "round " << round;
    ASSERT_EQ(api_dirty.EstimatedBaseRttS(), api_clean.EstimatedBaseRttS());
    ASSERT_EQ(api_dirty.LastReward(), api_clean.LastReward());
  }
  EXPECT_EQ(service->DecisionCount(dirty), 40);
  EXPECT_EQ(service->DecisionCount(posted), 40);
  EXPECT_EQ(service->stats().ring_reports, 40);
}

TEST(ServingReportTest, MalformedSynthesizedReportSkipsItsInterval) {
  MoccConfig config;
  Rng model_rng(43);
  auto model = std::make_shared<PreferenceActorCritic>(config, &model_rng);
  PolicySpec spec;
  spec.WithModel(model).WithPrecision(Precision::kFloat32);
  MoccServing::Options sopts;
  sopts.tick_s = 0.010;
  std::unique_ptr<MoccServing> service = CreateService(spec, sopts);
  ASSERT_NE(service, nullptr);

  // `dirty` sees a NaN ACK RTT in its first 20 ms interval; `clean` starts one
  // interval later, so both then see the same feedback on the same ticks.
  MoccServing::ConnectionOptions copts;
  copts.mi_duration_s = 0.020;
  const ServingConnId dirty = service->AttachConnection(FlowWeight(0), copts);
  copts.start_time_s = 0.020;
  const ServingConnId clean = service->AttachConnection(FlowWeight(0), copts);
  AckInfo poisoned;
  poisoned.rtt_s = std::numeric_limits<double>::quiet_NaN();
  service->OnPacketSent(dirty, 2);
  service->OnAck(dirty, poisoned);
  service->RatePoll(0.010);
  service->RatePoll(0.020);
  EXPECT_EQ(service->DecisionCount(dirty), 0);  // the poisoned interval is skipped
  EXPECT_EQ(service->RateBps(dirty), 2e6);
  for (int tick = 3; tick <= 20; ++tick) {
    AckInfo ack;
    ack.rtt_s = 0.040 + 0.001 * (tick % 5);
    for (const ServingConnId id : {dirty, clean}) {
      service->OnPacketSent(id, 2);
      service->OnAck(id, ack);
    }
    service->RatePoll(tick * 0.010);
    ASSERT_EQ(service->RateBps(dirty), service->RateBps(clean)) << "tick " << tick;
  }
  EXPECT_EQ(service->DecisionCount(dirty), 9);
  EXPECT_EQ(service->DecisionCount(clean), 9);
}

// --- 8. InferencePolicy thread contract -------------------------------------

TEST(ServingPolicyTest, SequentialUseAcrossThreadsIsAllowed) {
  MoccConfig config;
  Rng rng(29);
  PreferenceActorCritic model(config, &rng);
  std::unique_ptr<InferencePolicy> policy = model.MakeFloat32Policy();
  const std::vector<double> obs(model.obs_dim(), 0.5);
  const double main_mean = policy->ActionMean(obs);
  double thread_mean = 0.0;
  // Sequential cross-thread use (externally ordered) is inside the contract:
  // the debug reentrancy assert must not fire.
  std::thread worker([&] { thread_mean = policy->ActionMean(obs); });
  worker.join();
  EXPECT_EQ(thread_mean, main_mean);
  EXPECT_EQ(policy->ActionMean(obs), main_mean);
}

}  // namespace
}  // namespace mocc
