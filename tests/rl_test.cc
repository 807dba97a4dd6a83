// Tests for the RL substrate: GAE on hand-computed traces, Gaussian policy math, the
// PPO trainer (including learning a trivial control problem and the two-buffer Eq. 6
// update path), parallel rollout collection, DQN, and the float32 deployment
// inference parity suite (InferencePolicy vs the double path on trained models).
#include <cmath>

#include <gtest/gtest.h>

#include "src/core/mocc_config.h"
#include "src/core/preference_model.h"
#include "src/envs/env.h"
#include "src/envs/scenario.h"
#include "src/rl/actor_critic.h"
#include "src/rl/dqn.h"
#include "src/rl/evaluate.h"
#include "src/rl/inference_policy.h"
#include "src/rl/ppo.h"
#include "src/rl/rollout.h"

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

TEST(GaussianMathTest, LogProbMatchesClosedForm) {
  const double lp = GaussianLogProb(1.0, 0.0, 2.0);
  const double expected = -0.5 * 0.25 - std::log(2.0) - 0.5 * std::log(2.0 * M_PI);
  EXPECT_NEAR(lp, expected, 1e-12);
}

TEST(GaussianMathTest, EntropyIncreasesWithStd) {
  EXPECT_LT(GaussianEntropy(0.5), GaussianEntropy(1.0));
  EXPECT_NEAR(GaussianEntropy(1.0), 0.5 * std::log(2.0 * M_PI * std::exp(1.0)), 1e-12);
}

TEST(GaeTest, SingleStepEpisode) {
  RolloutBuffer buf;
  Transition t;
  t.reward = 1.0;
  t.value = 0.4;
  t.done = true;
  buf.transitions.push_back(t);
  ComputeGae(&buf, 0.9, 0.95, /*bootstrap=*/123.0);  // bootstrap ignored: done
  ASSERT_EQ(buf.advantages.size(), 1u);
  EXPECT_NEAR(buf.advantages[0], 1.0 - 0.4, 1e-12);
  EXPECT_NEAR(buf.returns[0], 1.0, 1e-12);
}

TEST(GaeTest, HandComputedTwoSteps) {
  // gamma=0.5, lambda=1.0 (monte carlo): adv_t = G_t - V_t.
  RolloutBuffer buf;
  Transition t0;
  t0.reward = 1.0;
  t0.value = 0.0;
  t0.done = false;
  Transition t1;
  t1.reward = 2.0;
  t1.value = 0.0;
  t1.done = true;
  buf.transitions = {t0, t1};
  ComputeGae(&buf, 0.5, 1.0, 0.0);
  EXPECT_NEAR(buf.advantages[1], 2.0, 1e-12);
  EXPECT_NEAR(buf.advantages[0], 1.0 + 0.5 * 2.0, 1e-12);
}

TEST(GaeTest, BootstrapUsedWhenTruncated) {
  RolloutBuffer buf;
  Transition t;
  t.reward = 0.0;
  t.value = 0.0;
  t.done = false;  // truncated, not terminal
  buf.transitions.push_back(t);
  ComputeGae(&buf, 0.9, 1.0, /*bootstrap=*/10.0);
  EXPECT_NEAR(buf.advantages[0], 0.9 * 10.0, 1e-12);
}

TEST(GaeTest, DoneBlocksCreditAcrossEpisodes) {
  RolloutBuffer buf;
  Transition t0;
  t0.reward = 0.0;
  t0.value = 0.0;
  t0.done = true;  // episode boundary
  Transition t1;
  t1.reward = 100.0;
  t1.value = 0.0;
  t1.done = true;
  buf.transitions = {t0, t1};
  ComputeGae(&buf, 0.99, 0.95, 0.0);
  EXPECT_NEAR(buf.advantages[0], 0.0, 1e-12);  // no leak from the next episode
}

TEST(NormalizeAdvantagesTest, ZeroMeanUnitVariance) {
  RolloutBuffer buf;
  buf.advantages = {1.0, 2.0, 3.0, 4.0};
  buf.transitions.resize(4);
  buf.returns.resize(4);
  NormalizeAdvantages(&buf);
  double mean = 0.0;
  for (double a : buf.advantages) {
    mean += a;
  }
  EXPECT_NEAR(mean, 0.0, 1e-9);
}

TEST(ActorCriticTest, ForwardShapes) {
  Rng rng(1);
  MlpActorCritic model(6, &rng);
  Matrix obs(5, 6);
  obs.FillNormal(&rng, 1.0);
  Matrix mean;
  Matrix value;
  model.Forward(obs, &mean, &value);
  EXPECT_EQ(mean.rows(), 5u);
  EXPECT_EQ(mean.cols(), 1u);
  EXPECT_EQ(value.rows(), 5u);
  EXPECT_EQ(value.cols(), 1u);
}

TEST(ActorCriticTest, CloneIsIndependentDeepCopy) {
  Rng rng(2);
  MlpActorCritic model(4, &rng);
  auto clone = model.Clone();
  const std::vector<double> obs = {0.1, 0.2, 0.3, 0.4};
  EXPECT_DOUBLE_EQ(model.ActionMean(obs), clone->ActionMean(obs));
  // Mutate the original; clone must not change.
  model.Params()[0].value->data()[0] += 1.0;
  EXPECT_NE(model.ActionMean(obs), clone->ActionMean(obs));
}

TEST(ActorCriticTest, SerializationRoundTrip) {
  Rng r1(3);
  Rng r2(4);
  MlpActorCritic a(4, &r1);
  MlpActorCritic b(4, &r2);
  std::stringstream ss;
  BinaryWriter w(ss, "ACTEST__", 1);
  a.Serialize(&w);
  BinaryReader r(ss, "ACTEST__", 1);
  ASSERT_TRUE(b.Deserialize(&r));
  const std::vector<double> obs = {1.0, -1.0, 0.5, 0.0};
  EXPECT_DOUBLE_EQ(a.ActionMean(obs), b.ActionMean(obs));
  EXPECT_DOUBLE_EQ(a.log_std(), b.log_std());
}

TEST(PpoTest, LearnsQuadraticTarget) {
  Rng rng(3);
  MlpActorCritic model(2, &rng, {16, 16});
  PpoConfig config;
  config.rollout_steps = 512;
  config.entropy_start = 0.05;
  config.entropy_end = 0.02;
  config.entropy_decay_iters = 100;
  config.seed = 5;
  PpoTrainer trainer(&model, config);
  QuadEnv env(1.5);
  for (int i = 0; i < 150; ++i) {
    trainer.TrainIteration(&env);
  }
  EXPECT_NEAR(model.ActionMean({0.5, -0.5}), 1.5, 0.7);
}

TEST(PpoTest, RewardImprovesOverTraining) {
  Rng rng(6);
  MlpActorCritic model(2, &rng, {16, 16});
  PpoConfig config;
  config.rollout_steps = 512;
  config.entropy_start = 0.03;
  config.entropy_decay_iters = 20;
  config.seed = 10;
  PpoTrainer trainer(&model, config);
  QuadEnv env(-2.0);
  const double first = trainer.TrainIteration(&env).mean_step_reward;
  double last = first;
  for (int i = 0; i < 30; ++i) {
    last = trainer.TrainIteration(&env).mean_step_reward;
  }
  EXPECT_GT(last, first);
}

TEST(PpoTest, EntropyCoefDecaysLinearly) {
  Rng rng(7);
  MlpActorCritic model(2, &rng, {8});
  PpoConfig config;
  config.entropy_start = 1.0;
  config.entropy_end = 0.1;
  config.entropy_decay_iters = 10;
  PpoTrainer trainer(&model, config);
  EXPECT_DOUBLE_EQ(trainer.EntropyCoef(), 1.0);
  trainer.set_iteration(5);
  EXPECT_NEAR(trainer.EntropyCoef(), 0.55, 1e-9);
  trainer.set_iteration(100);
  EXPECT_DOUBLE_EQ(trainer.EntropyCoef(), 0.1);
}

TEST(PpoTest, TwoBufferUpdateImplementsJointObjective) {
  // Eq. (6): training jointly on two quad targets lands the policy between them when
  // the observation cannot distinguish the tasks.
  Rng rng(8);
  MlpActorCritic model(2, &rng, {16, 16});
  PpoConfig config;
  config.rollout_steps = 256;
  config.entropy_start = 0.05;
  config.entropy_end = 0.01;
  config.entropy_decay_iters = 30;
  config.seed = 11;
  PpoTrainer trainer(&model, config);
  QuadEnv env_a(1.0);
  QuadEnv env_b(3.0);
  for (int i = 0; i < 150; ++i) {
    RolloutBuffer a = trainer.CollectRollout(&env_a, 256);
    RolloutBuffer b = trainer.CollectRollout(&env_b, 256);
    trainer.Update({&a, &b});
  }
  // The tasks are indistinguishable from the observation, so the policy must settle
  // strictly between the two targets (pulled by both).
  const double mean = model.ActionMean({0.5, -0.5});
  EXPECT_GT(mean, 0.3);
  EXPECT_LT(mean, 3.7);
}

TEST(PpoTest, ParallelRolloutsMatchConfiguredSizes) {
  Rng rng(9);
  MlpActorCritic model(2, &rng, {8});
  PpoConfig config;
  config.seed = 12;
  PpoTrainer trainer(&model, config);
  QuadEnv e1(0.0);
  QuadEnv e2(1.0);
  QuadEnv e3(2.0);
  auto buffers =
      trainer.CollectSourcesParallel({{&e1, nullptr}, {&e2, nullptr}, {&e3, nullptr}}, 100);
  ASSERT_EQ(buffers.size(), 3u);
  for (const auto& b : buffers) {
    EXPECT_EQ(b.size(), 100u);
    EXPECT_EQ(b.advantages.size(), 100u);
  }
}

TEST(PpoTest, LogStdStaysWithinBounds) {
  Rng rng(10);
  MlpActorCritic model(2, &rng, {8});
  PpoConfig config;
  config.rollout_steps = 128;
  config.entropy_start = 50.0;  // absurdly strong entropy push
  config.entropy_end = 50.0;
  config.seed = 13;
  PpoTrainer trainer(&model, config);
  QuadEnv env(0.0);
  for (int i = 0; i < 5; ++i) {
    trainer.TrainIteration(&env);
  }
  EXPECT_LE(model.log_std(), config.log_std_max + 1e-12);
  EXPECT_GE(model.log_std(), config.log_std_min - 1e-12);
}

TEST(EvaluateTest, CountsEpisodesAndAveratesReward) {
  QuadEnv env(1.0);
  const EvalResult res =
      EvaluateActionFn([](const std::vector<double>&) { return 1.0; }, &env, 3);
  EXPECT_EQ(res.episodes, 3);
  EXPECT_NEAR(res.mean_step_reward, 1.0, 1e-9);  // perfect action
  EXPECT_NEAR(res.mean_episode_return, 64.0, 1e-9);
}

TEST(DqnTest, BinToActionCoversRange) {
  DqnConfig config;
  config.action_bins = 5;
  DqnTrainer trainer(2, config);
  EXPECT_DOUBLE_EQ(trainer.BinToAction(0), -1.0);
  EXPECT_DOUBLE_EQ(trainer.BinToAction(4), 1.0);
  EXPECT_DOUBLE_EQ(trainer.BinToAction(2), 0.0);
}

TEST(DqnTest, EpsilonDecays) {
  DqnConfig config;
  config.epsilon_decay_steps = 100;
  config.steps_per_iteration = 50;
  DqnTrainer trainer(2, config);
  EXPECT_DOUBLE_EQ(trainer.CurrentEpsilon(), 1.0);
  QuadEnv env(0.0);
  trainer.TrainIteration(&env);
  EXPECT_LT(trainer.CurrentEpsilon(), 1.0);
}

// ---------------------------------------------------------------------------
// Float32 deployment-inference parity (the `precision` suite).
//
// A trained model's float32 replica must make the same control decisions as the
// double path: the per-MI decision is the mean action fed to Eq. (1) with
// α = 0.025, where an action difference of 1e-3 moves the rate by 0.0025% — far
// below every other noise source in the loop. "Agreement" on one observation is
// therefore |mean_f32 - mean_d| <= 1e-3; the suite requires >= 99% agreement
// across a scenario sweep of on-policy observations and bounds the worst-case
// drift of both heads.
// ---------------------------------------------------------------------------

constexpr double kActionAgreementTol = 1e-3;

// Collects on-policy observations by running the double policy through `env`.
std::vector<std::vector<double>> CollectObservations(ActorCritic* model, Env* env,
                                                     int steps) {
  std::vector<std::vector<double>> observations;
  observations.reserve(static_cast<size_t>(steps));
  std::vector<double> obs = env->Reset();
  for (int i = 0; i < steps; ++i) {
    observations.push_back(obs);
    const StepResult r = env->Step(model->ActionMean(obs));
    obs = r.done ? env->Reset() : r.observation;
  }
  return observations;
}

struct ParityStats {
  double agreement = 0.0;      // fraction of observations within kActionAgreementTol
  double max_mean_drift = 0.0;  // worst |mean_f32 - mean_d|
  double max_value_drift = 0.0;  // worst |value_f32 - value_d|
};

ParityStats MeasureParityTol(ActorCritic* model, InferencePolicy* policy,
                             const std::vector<std::vector<double>>& observations,
                             double tol) {
  ParityStats stats;
  int agree = 0;
  for (const auto& obs : observations) {
    double mean_d = 0.0;
    double value_d = 0.0;
    model->ForwardRow(obs, &mean_d, &value_d);
    double mean_f = 0.0;
    double value_f = 0.0;
    policy->ForwardRow(obs, &mean_f, &value_f);
    const double mean_drift = std::fabs(mean_f - mean_d);
    stats.max_mean_drift = std::max(stats.max_mean_drift, mean_drift);
    stats.max_value_drift = std::max(stats.max_value_drift, std::fabs(value_f - value_d));
    if (mean_drift <= tol) {
      ++agree;
    }
  }
  stats.agreement = observations.empty()
                        ? 0.0
                        : static_cast<double>(agree) / observations.size();
  return stats;
}

ParityStats MeasureParity(ActorCritic* model, InferencePolicy* policy,
                          const std::vector<std::vector<double>>& observations) {
  return MeasureParityTol(model, policy, observations, kActionAgreementTol);
}

TEST(Float32ParityTest, TrainedMlpActorCriticAgreesAcrossQuadEnv) {
  // A genuinely trained checkpoint (not random init): weights have moved into the
  // regime the deployment path will see.
  Rng rng(31);
  MlpActorCritic model(2, &rng, {16, 16});
  PpoConfig config;
  config.rollout_steps = 256;
  config.seed = 7;
  PpoTrainer trainer(&model, config);
  QuadEnv env(1.0);
  for (int i = 0; i < 20; ++i) {
    trainer.TrainIteration(&env);
  }

  auto policy = model.MakeFloat32Policy();
  ASSERT_NE(policy, nullptr);
  EXPECT_EQ(policy->obs_dim(), model.obs_dim());
  EXPECT_DOUBLE_EQ(policy->log_std(), model.log_std());

  const auto observations = CollectObservations(&model, &env, 512);
  const ParityStats stats = MeasureParity(&model, policy.get(), observations);
  EXPECT_GE(stats.agreement, 0.99) << "max mean drift " << stats.max_mean_drift;
  EXPECT_LT(stats.max_mean_drift, kActionAgreementTol);
  EXPECT_LT(stats.max_value_drift, 1e-2);  // the critic head is unsquashed
}

TEST(Float32ParityTest, TrainedPreferenceModelAgreesAcrossScenarioSweep) {
  // Train the Figure-3 model briefly on the training env, then sweep the
  // single-flow scenario catalog collecting on-policy observations and require
  // >= 99% action agreement with bounded per-head drift on every scenario.
  MoccConfig mocc_config;
  Rng rng(32);
  PreferenceActorCritic model(mocc_config, &rng);
  PpoConfig ppo = mocc_config.MakePpoConfig(/*seed=*/9);
  ppo.rollout_steps = 256;
  PpoTrainer trainer(&model, ppo);
  CcEnv train_env(mocc_config.MakeEnvConfig(), /*seed=*/41);
  train_env.SetObjective(WeightVector(0.6, 0.3, 0.1));
  for (int i = 0; i < 3; ++i) {
    trainer.TrainIteration(&train_env);
  }

  auto policy = model.MakeFloat32Policy();
  ASSERT_NE(policy, nullptr);
  for (const char* name : {"static", "oscillating", "random-walk", "cellular"}) {
    const Scenario* scenario = ScenarioRegistry::Global().Find(name);
    ASSERT_NE(scenario, nullptr) << name;
    auto env = scenario->MakeSingleFlowEnv(mocc_config.MakeEnvConfig(), /*seed=*/77);
    env->SetObjective(WeightVector(0.3, 0.5, 0.2));
    const auto observations = CollectObservations(&model, env.get(), 400);
    const ParityStats stats = MeasureParity(&model, policy.get(), observations);
    EXPECT_GE(stats.agreement, 0.99)
        << name << ": max mean drift " << stats.max_mean_drift;
    EXPECT_LT(stats.max_mean_drift, 1e-2) << name;
    EXPECT_LT(stats.max_value_drift, 5e-2) << name;
  }
}

// ---------------------------------------------------------------------------
// Int8 deployment-inference parity (the `precision` suite, quantized path).
//
// The int8 replica trades precision for throughput deliberately: 8-bit
// offset-128 activation codes, 6-bit per-output-channel weights and a
// polynomial tanh put its intrinsic resolution around the activation coding
// step (~1/127 ≈ 7.9e-3 per layer), so the float32 agreement bar of 1e-3 is
// not meaningful for it. The deployment question is whether the drift is
// control-relevant: with α = 0.025 in Eq. (1), a mean-action difference of
// 5e-2 moves the per-MI rate by 0.125% — still far below loop noise (a single
// queued packet moves the latency signal orders of magnitude more). Measured
// worst-case drift on trained checkpoints is ~3e-2; the gate requires >= 99%
// of on-policy observations within 5e-2 and caps worst-case drift of both
// heads at 1e-1.
// ---------------------------------------------------------------------------

constexpr double kInt8ActionAgreementTol = 5e-2;

TEST(Int8ParityTest, TrainedMlpActorCriticAgreesAcrossQuadEnv) {
  Rng rng(31);
  MlpActorCritic model(2, &rng, {16, 16});
  PpoConfig config;
  config.rollout_steps = 256;
  config.seed = 7;
  PpoTrainer trainer(&model, config);
  QuadEnv env(1.0);
  for (int i = 0; i < 20; ++i) {
    trainer.TrainIteration(&env);
  }

  auto policy = model.MakeInt8Policy();
  ASSERT_NE(policy, nullptr);
  EXPECT_EQ(policy->obs_dim(), model.obs_dim());

  const auto observations = CollectObservations(&model, &env, 512);
  const ParityStats stats =
      MeasureParityTol(&model, policy.get(), observations, kInt8ActionAgreementTol);
  EXPECT_GE(stats.agreement, 0.99) << "max mean drift " << stats.max_mean_drift;
  EXPECT_LT(stats.max_mean_drift, 1e-1);
  EXPECT_LT(stats.max_value_drift, 1e-1);
}

TEST(Int8ParityTest, TrainedPreferenceModelAgreesAcrossScenarioSweep) {
  // Same trained checkpoint + scenario sweep as the float32 gate, against the
  // quantized replica. This is the acceptance gate for shipping --precision
  // int8: every scenario must hit >= 99% agreement at the deployment tolerance.
  MoccConfig mocc_config;
  Rng rng(32);
  PreferenceActorCritic model(mocc_config, &rng);
  PpoConfig ppo = mocc_config.MakePpoConfig(/*seed=*/9);
  ppo.rollout_steps = 256;
  PpoTrainer trainer(&model, ppo);
  CcEnv train_env(mocc_config.MakeEnvConfig(), /*seed=*/41);
  train_env.SetObjective(WeightVector(0.6, 0.3, 0.1));
  for (int i = 0; i < 3; ++i) {
    trainer.TrainIteration(&train_env);
  }

  auto policy = model.MakeInt8Policy();
  ASSERT_NE(policy, nullptr);
  for (const char* name : {"static", "oscillating", "random-walk", "cellular"}) {
    const Scenario* scenario = ScenarioRegistry::Global().Find(name);
    ASSERT_NE(scenario, nullptr) << name;
    auto env = scenario->MakeSingleFlowEnv(mocc_config.MakeEnvConfig(), /*seed=*/77);
    env->SetObjective(WeightVector(0.3, 0.5, 0.2));
    const auto observations = CollectObservations(&model, env.get(), 400);
    const ParityStats stats = MeasureParityTol(&model, policy.get(), observations,
                                               kInt8ActionAgreementTol);
    EXPECT_GE(stats.agreement, 0.99)
        << name << ": max mean drift " << stats.max_mean_drift;
    EXPECT_LT(stats.max_mean_drift, 1e-1) << name;
    EXPECT_LT(stats.max_value_drift, 1e-1) << name;
  }
}

TEST(Int8ParityTest, PreferencePolicyPrefixCacheIsCoherent) {
  // The int8 wrapper caches the quantized PN-prefix contribution (SeedPrefix)
  // keyed on the leading weight vector, like the f32 l0_partial trick. A
  // w-change/revert sequence must be bit-identical to a cache-cold replica.
  MoccConfig config;
  Rng rng(33);
  PreferenceActorCritic model(config, &rng);
  auto cached = model.MakeInt8Policy();
  ASSERT_NE(cached, nullptr);

  Rng obs_rng(34);
  auto make_obs = [&](double w_thr, double w_lat, double w_loss) {
    std::vector<double> obs(config.ObsDim());
    obs[0] = w_thr;
    obs[1] = w_lat;
    obs[2] = w_loss;
    for (size_t i = 3; i < obs.size(); ++i) {
      obs[i] = obs_rng.Uniform(-1.0, 1.0);
    }
    return obs;
  };
  const std::vector<std::vector<double>> sequence = {
      make_obs(0.6, 0.3, 0.1), make_obs(0.6, 0.3, 0.1), make_obs(0.1, 0.8, 0.1),
      make_obs(0.6, 0.3, 0.1)};
  for (const auto& obs : sequence) {
    double mean_cached = 0.0;
    double value_cached = 0.0;
    cached->ForwardRow(obs, &mean_cached, &value_cached);
    auto fresh = model.MakeInt8Policy();
    double mean_fresh = 0.0;
    double value_fresh = 0.0;
    fresh->ForwardRow(obs, &mean_fresh, &value_fresh);
    EXPECT_EQ(mean_cached, mean_fresh);
    EXPECT_EQ(value_cached, value_fresh);
  }
}

TEST(Float32ParityTest, PreferencePolicyPnCacheIsCoherent) {
  // The f32 wrapper caches PN features keyed on the leading weight vector. Runs
  // through a w-change/revert sequence must be bit-identical to a cache-cold
  // replica evaluating each observation fresh.
  MoccConfig config;
  Rng rng(33);
  PreferenceActorCritic model(config, &rng);
  auto cached = model.MakeFloat32Policy();
  ASSERT_NE(cached, nullptr);

  Rng obs_rng(34);
  auto make_obs = [&](double w_thr, double w_lat, double w_loss) {
    std::vector<double> obs(config.ObsDim());
    obs[0] = w_thr;
    obs[1] = w_lat;
    obs[2] = w_loss;
    for (size_t i = 3; i < obs.size(); ++i) {
      obs[i] = obs_rng.Uniform(-1.0, 1.0);
    }
    return obs;
  };
  // Same w twice (cache hit), a different w (miss + refill), then the first w
  // again (miss — the cache holds only the last w).
  const std::vector<std::vector<double>> sequence = {
      make_obs(0.6, 0.3, 0.1), make_obs(0.6, 0.3, 0.1), make_obs(0.1, 0.8, 0.1),
      make_obs(0.6, 0.3, 0.1)};
  for (const auto& obs : sequence) {
    double mean_cached = 0.0;
    double value_cached = 0.0;
    cached->ForwardRow(obs, &mean_cached, &value_cached);
    // Cache-cold reference: a fresh replica of the same model.
    auto fresh = model.MakeFloat32Policy();
    double mean_fresh = 0.0;
    double value_fresh = 0.0;
    fresh->ForwardRow(obs, &mean_fresh, &value_fresh);
    EXPECT_EQ(mean_cached, mean_fresh);
    EXPECT_EQ(value_cached, value_fresh);
  }
}

TEST(Float32ParityTest, Float32PolicyEvaluationMatchesDoubleEvaluationClosely) {
  // End-to-end episode divergence bound: on the deterministic QuadEnv the f32
  // and double policies must earn nearly identical returns.
  Rng rng(35);
  MlpActorCritic model(2, &rng, {16, 16});
  QuadEnv env(0.5);
  const EvalResult d = EvaluatePolicy(&model, &env, 3);
  std::unique_ptr<InferencePolicy> policy = model.MakeFloat32Policy();
  ASSERT_NE(policy, nullptr);
  const EvalResult f = EvaluatePolicy(policy.get(), &env, 3);
  EXPECT_EQ(f.episodes, d.episodes);
  EXPECT_NEAR(f.mean_episode_return, d.mean_episode_return, 1e-4);
  EXPECT_NEAR(f.mean_step_reward, d.mean_step_reward, 1e-6);
}

TEST(DqnTest, LearnsQuadraticTargetWithinDiscretization) {
  DqnConfig config;
  config.action_bins = 9;
  config.steps_per_iteration = 512;
  config.epsilon_decay_steps = 4000;
  config.seed = 21;
  DqnTrainer trainer(2, config);
  QuadEnv env(0.5);  // representable: bins at 0.25 spacing
  for (int i = 0; i < 12; ++i) {
    trainer.TrainIteration(&env);
  }
  EXPECT_NEAR(trainer.GreedyAction({0.5, -0.5}), 0.5, 0.3);
}

}  // namespace
}  // namespace mocc
