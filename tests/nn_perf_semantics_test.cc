// Semantics tests for the performance fast paths: the allocation-free batched
// ForwardInto/BackwardInto pair and the fused single-row ForwardRow must match the
// batched reference bit-for-bit (same floating-point operation order), and parallel
// rollout collection must be deterministic — bit-identical to serial collection and
// reproducible across runs under a fixed seed.
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/model_sharing.h"
#include "src/core/offline_trainer.h"
#include "src/core/preference_model.h"
#include "src/envs/env.h"
#include "src/envs/scenario.h"
#include "src/nn/matrix.h"
#include "src/nn/mlp.h"
#include "src/rl/actor_critic.h"
#include "src/rl/ppo.h"

namespace mocc {
namespace {

// Reward = 1 - (a - target)^2 / 10 with a constant observation; optimum a = target.
class QuadEnv : public Env {
 public:
  explicit QuadEnv(double target, std::vector<double> obs = {0.5, -0.5})
      : target_(target), obs_(std::move(obs)) {}
  std::vector<double> Reset() override {
    steps_ = 0;
    return obs_;
  }
  StepResult Step(double a) override {
    StepResult r;
    r.reward = 1.0 - (a - target_) * (a - target_) / 10.0;
    r.done = ++steps_ >= 64;
    r.observation = obs_;
    return r;
  }
  size_t ObservationDim() const override { return obs_.size(); }

 private:
  double target_;
  std::vector<double> obs_;
  int steps_ = 0;
};

TEST(NnFastPathTest, ForwardIntoMatchesForwardBitForBit) {
  Rng rng(11);
  Mlp net({7, 16, 8, 3}, Activation::kTanh, Activation::kIdentity, &rng);
  Matrix x(5, 7);
  x.FillNormal(&rng, 1.0);
  const Matrix reference = net.Forward(x);
  Matrix into;
  net.ForwardInto(x, &into);
  ASSERT_EQ(into.rows(), reference.rows());
  ASSERT_EQ(into.cols(), reference.cols());
  for (size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(into.data()[i], reference.data()[i]) << "element " << i;
  }
  // Workspace reuse across a batch-size change must not corrupt results.
  Matrix x2(3, 7);
  x2.FillNormal(&rng, 1.0);
  const Matrix ref2 = net.Forward(x2);
  Matrix into2;
  net.ForwardInto(x2, &into2);
  for (size_t i = 0; i < ref2.size(); ++i) {
    EXPECT_EQ(into2.data()[i], ref2.data()[i]);
  }
}

TEST(NnFastPathTest, ForwardRowMatchesBatchedForwardBitForBit) {
  Rng rng(13);
  // Width > 64 exercises the blocked matmul across more than one k-block.
  Mlp net({70, 64, 32, 2}, Activation::kTanh, Activation::kIdentity, &rng);
  Matrix x(4, 70);
  x.FillNormal(&rng, 1.0);
  const Matrix reference = net.Forward(x);
  std::vector<double> out;
  for (size_t r = 0; r < x.rows(); ++r) {
    net.ForwardRow(x.Row(r), &out);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0], reference(r, 0)) << "row " << r;
    EXPECT_EQ(out[1], reference(r, 1)) << "row " << r;
  }
}

TEST(NnFastPathTest, BackwardIntoMatchesLegacyBackwardBitForBit) {
  Rng rng(17);
  Mlp a({5, 12, 4}, Activation::kTanh, Activation::kIdentity, &rng);
  Mlp b({5, 12, 4}, Activation::kTanh, Activation::kIdentity, &rng);
  b.CopyWeightsFrom(a);
  Matrix x(6, 5);
  x.FillNormal(&rng, 1.0);

  a.ZeroGrad();
  const Matrix ya = a.Forward(x);
  const Matrix dxa = a.Backward(ya);

  b.ZeroGrad();
  Matrix yb;
  b.ForwardInto(x, &yb);
  Matrix dxb;
  b.BackwardInto(yb, &dxb);

  auto pa = a.Params();
  auto pb = b.Params();
  ASSERT_EQ(pa.size(), pb.size());
  for (size_t p = 0; p < pa.size(); ++p) {
    for (size_t i = 0; i < pa[p].grad->size(); ++i) {
      EXPECT_EQ(pa[p].grad->data()[i], pb[p].grad->data()[i]) << "param " << p;
    }
  }
  ASSERT_EQ(dxa.size(), dxb.size());
  for (size_t i = 0; i < dxa.size(); ++i) {
    EXPECT_EQ(dxa.data()[i], dxb.data()[i]);
  }
}

TEST(NnFastPathTest, BackwardIntoColumnLimitLeavesParameterGradientsBitForBit) {
  // Asking for fewer dL/dX columns, or none, only skips work: every parameter
  // gradient equals the full call's bit for bit, and the limited dL/dX is the
  // full one's leading columns. Shapes: the MOCC trunk (the PN reads 16 of its
  // 46 input gradients) and a one-layer net, where the limit hits the only layer.
  for (const std::vector<size_t>& dims :
       {std::vector<size_t>{46, 64, 32, 1}, std::vector<size_t>{7, 5}}) {
    Rng rng(37);
    Mlp full(dims, Activation::kTanh, Activation::kIdentity, &rng);
    Mlp limited(dims, Activation::kTanh, Activation::kIdentity, &rng);
    Mlp none(dims, Activation::kTanh, Activation::kIdentity, &rng);
    limited.CopyWeightsFrom(full);
    none.CopyWeightsFrom(full);
    Matrix x(9, dims.front());
    x.FillNormal(&rng, 1.0);
    Matrix dy(9, dims.back());
    dy.FillNormal(&rng, 1.0);
    auto backward = [&](Mlp* net, Matrix* dx, size_t cols) {
      net->ZeroGrad();
      Matrix y;
      net->ForwardInto(x, &y);
      net->BackwardInto(dy, dx, cols);
    };
    const size_t cols = 3;
    Matrix dx_full;
    Matrix dx_limited;
    backward(&full, &dx_full, SIZE_MAX);
    backward(&limited, &dx_limited, cols);
    backward(&none, nullptr, SIZE_MAX);

    ASSERT_EQ(dx_full.rows(), 9u);
    ASSERT_EQ(dx_full.cols(), dims.front());
    ASSERT_EQ(dx_limited.rows(), 9u);
    ASSERT_EQ(dx_limited.cols(), cols);
    for (size_t r = 0; r < 9; ++r) {
      for (size_t c = 0; c < cols; ++c) {
        EXPECT_EQ(dx_limited(r, c), dx_full(r, c)) << "row " << r << " col " << c;
      }
    }
    auto pf = full.Params();
    auto pl = limited.Params();
    auto pn = none.Params();
    ASSERT_EQ(pf.size(), pl.size());
    ASSERT_EQ(pf.size(), pn.size());
    for (size_t p = 0; p < pf.size(); ++p) {
      for (size_t i = 0; i < pf[p].grad->size(); ++i) {
        EXPECT_EQ(pl[p].grad->data()[i], pf[p].grad->data()[i]) << "param " << p;
        EXPECT_EQ(pn[p].grad->data()[i], pf[p].grad->data()[i]) << "param " << p;
      }
    }
  }
}

TEST(NnFastPathTest, MlpActorCriticForwardRowMatchesBatched) {
  Rng rng(19);
  MlpActorCritic model(6, &rng);
  Matrix obs(3, 6);
  obs.FillNormal(&rng, 1.0);
  Matrix mean;
  Matrix value;
  model.Forward(obs, &mean, &value);
  for (size_t r = 0; r < obs.rows(); ++r) {
    double m = 0.0;
    double v = 0.0;
    model.ForwardRow(obs.Row(r), &m, &v);
    EXPECT_EQ(m, mean(r, 0)) << "row " << r;
    EXPECT_EQ(v, value(r, 0)) << "row " << r;
  }
}

TEST(NnFastPathTest, PreferenceModelForwardRowMatchesBatched) {
  MoccConfig config;
  Rng rng(23);
  PreferenceActorCritic model(config, &rng);
  Matrix obs(4, config.ObsDim());
  obs.FillNormal(&rng, 1.0);
  Matrix mean;
  Matrix value;
  model.Forward(obs, &mean, &value);
  for (size_t r = 0; r < obs.rows(); ++r) {
    double m = 0.0;
    double v = 0.0;
    model.ForwardRow(obs.Row(r), &m, &v);
    EXPECT_EQ(m, mean(r, 0)) << "row " << r;
    EXPECT_EQ(v, value(r, 0)) << "row " << r;
  }
}

TEST(NnFastPathTest, PnCacheStaysCoherentAcrossWeightChanges) {
  // ForwardRow caches the preference-sub-network features for a repeated weight
  // vector; the cache must be dropped whenever parameters change.
  MoccConfig config;
  Rng rng(29);
  PreferenceActorCritic model(config, &rng);
  std::vector<double> obs(config.ObsDim(), 0.2);
  obs[0] = 0.5;
  obs[1] = 0.3;
  obs[2] = 0.2;

  auto batched_mean = [&](PreferenceActorCritic* m) {
    Matrix x(1, obs.size());
    x.SetRow(0, obs);
    Matrix mean;
    Matrix value;
    m->Forward(x, &mean, &value);
    return mean(0, 0);
  };

  // Warm the cache, then hit it: still identical to the batched path.
  EXPECT_EQ(model.ActionMean(obs), batched_mean(&model));
  EXPECT_EQ(model.ActionMean(obs), batched_mean(&model));

  // In-place blend changes the PN weights; ForwardRow must follow.
  Rng rng2(31);
  PreferenceActorCritic other(config, &rng2);
  ASSERT_TRUE(BlendModel(&model, other, 0.5));
  EXPECT_EQ(model.ActionMean(obs), batched_mean(&model));

  // A training update (ZeroGrad + optimizer step) must also invalidate.
  PpoConfig ppo_config;
  ppo_config.rollout_steps = 64;
  ppo_config.minibatch_size = 32;
  PpoTrainer trainer(&model, ppo_config);
  CcEnv env(config.MakeEnvConfig(), 91);
  model.ActionMean(obs);  // warm the cache right before the update
  trainer.TrainIteration(&env);
  EXPECT_EQ(model.ActionMean(obs), batched_mean(&model));

  // Serialization round-trip: the loaded model recomputes features.
  std::vector<double> w2 = {0.1, 0.6, 0.3};
  std::copy(w2.begin(), w2.end(), obs.begin());
  EXPECT_EQ(model.ActionMean(obs), batched_mean(&model));
}

TEST(ParallelRolloutTest, PoolAndSerialCollectionAreBitIdentical) {
  auto make_trainer = [](MlpActorCritic* model) {
    PpoConfig config;
    config.seed = 5;
    config.rollout_steps = 128;
    return PpoTrainer(model, config);
  };
  Rng r1(3);
  Rng r2(3);
  MlpActorCritic m1(2, &r1);
  MlpActorCritic m2(2, &r2);
  PpoTrainer parallel = make_trainer(&m1);
  PpoTrainer serial = make_trainer(&m2);
  serial.set_parallel_collection(false);

  std::vector<std::unique_ptr<QuadEnv>> envs1;
  std::vector<std::unique_ptr<QuadEnv>> envs2;
  std::vector<PpoTrainer::RolloutSource> sources1;
  std::vector<PpoTrainer::RolloutSource> sources2;
  for (int i = 0; i < 4; ++i) {
    envs1.push_back(std::make_unique<QuadEnv>(1.5));
    envs2.push_back(std::make_unique<QuadEnv>(1.5));
    sources1.push_back({envs1.back().get(), nullptr});
    sources2.push_back({envs2.back().get(), nullptr});
  }
  const auto buffers_parallel = parallel.CollectSourcesParallel(sources1, 64);
  const auto buffers_serial = serial.CollectSourcesParallel(sources2, 64);
  ASSERT_EQ(buffers_parallel.size(), buffers_serial.size());
  for (size_t e = 0; e < buffers_parallel.size(); ++e) {
    const RolloutBuffer& bp = buffers_parallel[e];
    const RolloutBuffer& bs = buffers_serial[e];
    ASSERT_EQ(bp.size(), bs.size());
    for (size_t i = 0; i < bp.size(); ++i) {
      EXPECT_EQ(bp.transitions[i].action, bs.transitions[i].action);
      EXPECT_EQ(bp.transitions[i].log_prob, bs.transitions[i].log_prob);
      EXPECT_EQ(bp.transitions[i].reward, bs.transitions[i].reward);
      EXPECT_EQ(bp.transitions[i].value, bs.transitions[i].value);
      EXPECT_EQ(bp.advantages[i], bs.advantages[i]);
      EXPECT_EQ(bp.returns[i], bs.returns[i]);
    }
  }
}

TEST(ParallelRolloutTest, ParallelEnvTrainingIsReproducibleAcrossRuns) {
  // parallel_envs=4 two-phase training must reproduce the same reward curve (and
  // the same final policy) across runs under a fixed seed.
  OfflineTrainConfig config;
  config.seed = 11;
  config.bootstrap_iterations = 2;
  config.traversal_rounds = 1;
  config.parallel_envs = 4;
  config.mocc.landmark_step_divisor = 3;  // smallest landmark grid keeps the test fast

  auto run = [&config]() {
    Rng rng(config.seed);
    auto model = std::make_shared<PreferenceActorCritic>(config.mocc, &rng);
    OfflineTrainer trainer(model.get(), config);
    const OfflineTrainResult result = trainer.TrainTwoPhase();
    return std::make_pair(result.reward_curve, model);
  };
  const auto [curve1, model1] = run();
  const auto [curve2, model2] = run();
  ASSERT_EQ(curve1.size(), curve2.size());
  ASSERT_GT(curve1.size(), 0u);
  for (size_t i = 0; i < curve1.size(); ++i) {
    EXPECT_EQ(curve1[i], curve2[i]) << "iteration " << i;
  }
  std::vector<double> obs(config.mocc.ObsDim(), 0.1);
  EXPECT_EQ(model1->ActionMean(obs), model2->ActionMean(obs));
}

TEST(ParallelRolloutTest, MultiEnvTrainingCollectsEveryObjective) {
  // n envs with no scenario list must train exactly like the scenario list
  // {sampled-link} at n slots, which builds the same CcEnv in every slot: both
  // collect every objective of a batch, in waves when it has more objectives
  // than slots (3 bootstrap pivots; 1 + 3 mixed objectives per traversal visit).
  std::string error;
  const auto sampled_link = ScenarioRegistry::Global().ResolveList("sampled-link", &error);
  ASSERT_TRUE(sampled_link.has_value()) << error;
  auto run = [](const OfflineTrainConfig& config) {
    Rng rng(config.seed);
    auto model = std::make_shared<PreferenceActorCritic>(config.mocc, &rng);
    OfflineTrainer trainer(model.get(), config);
    const OfflineTrainResult result = trainer.TrainTwoPhase();
    return std::make_pair(result.reward_curve, model);
  };
  for (const int n : {2, 3, 4}) {
    OfflineTrainConfig config;
    config.seed = 11;
    config.bootstrap_iterations = 2;
    config.traversal_rounds = 1;
    config.parallel_envs = n;
    config.mocc.landmark_step_divisor = 3;
    const auto [plain_curve, plain_model] = run(config);
    config.scenarios = *sampled_link;
    const auto [scenario_curve, scenario_model] = run(config);
    ASSERT_EQ(plain_curve.size(), scenario_curve.size()) << n << " envs";
    for (size_t i = 0; i < plain_curve.size(); ++i) {
      EXPECT_EQ(plain_curve[i], scenario_curve[i]) << n << " envs, iteration " << i;
    }
    std::vector<double> obs(config.mocc.ObsDim(), 0.1);
    EXPECT_EQ(plain_model->ActionMean(obs), scenario_model->ActionMean(obs)) << n << " envs";
  }
}

}  // namespace
}  // namespace mocc
