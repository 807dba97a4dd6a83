// Fault-tolerance suite (`ctest -L robustness`): crash-safe training
// (checkpoint/resume bit-identity, watchdog rollback on poisoned iterations),
// deployment guardrails (circuit-breaker trip, fallback driving, half-open
// recovery), and determinism of the fault-injected netsim scenarios
// (serial-vs-pool bit-identity, seed reproducibility).
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/common/serialization.h"
#include "src/core/offline_trainer.h"
#include "src/core/policy_spec.h"
#include "src/core/preference_model.h"
#include "src/envs/scenario.h"
#include "src/netsim/fault_spec.h"
#include "src/rl/guarded_policy.h"
#include "src/rl/ppo.h"

namespace mocc {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// A deliberately tiny two-phase schedule (3-landmark grid, 5 total iterations)
// on a small model — every structural element of the real schedule (bootstrap,
// traversal order, objective mixing, phase-boundary LR change) still executes.
OfflineTrainConfig SmallTrainConfig(uint64_t seed = 11) {
  OfflineTrainConfig config;
  config.seed = seed;
  config.mocc.history_len_eta = 4;
  config.mocc.pn_hidden = 8;
  config.mocc.pn_out = 8;
  config.mocc.trunk_hidden = {16, 8};
  config.mocc.landmark_step_divisor = 4;  // 3 landmark objectives
  config.bootstrap_iterations = 2;
  config.traversal_rounds = 1;
  config.traversal_iterations_per_objective = 1;
  config.traversal_mix_objectives = 1;
  return config;
}

std::string ModelBytes(const PreferenceActorCritic& model) {
  std::ostringstream out(std::ios::binary);
  BinaryWriter w(out, "TESTMODL", 1);
  model.Serialize(&w);
  return out.str();
}

bool AllParamsFinite(PreferenceActorCritic* model) {
  for (auto& p : model->Params()) {
    for (size_t i = 0; i < p.value->size(); ++i) {
      if (!std::isfinite(p.value->data()[i])) {
        return false;
      }
    }
  }
  return true;
}

MonitorReport MakeReport() {
  MonitorReport r;
  r.duration_s = 0.05;
  r.packets_sent = 100;
  r.packets_acked = 99;
  r.packets_lost = 1;
  r.send_rate_bps = 2e6;
  r.throughput_bps = 1.9e6;
  r.avg_rtt_s = 0.05;
  r.min_rtt_s = 0.04;
  r.loss_rate = 0.01;
  return r;
}

// --- Crash-safe training: checkpoint / resume bit-identity ------------------

TEST(CheckpointResumeTest, ResumedRunBitIdenticalWithUninterrupted) {
  const std::string dir = ::testing::TempDir();

  // Reference: the uninterrupted run.
  OfflineTrainConfig ref_config = SmallTrainConfig();
  ref_config.checkpoint_interval = 1;
  ref_config.checkpoint_path = dir + "/robustness_ref.ckpt";
  Rng rng_a(ref_config.seed);
  PreferenceActorCritic model_a(ref_config.mocc, &rng_a);
  OfflineTrainer trainer_a(&model_a, ref_config);
  const OfflineTrainResult ref = trainer_a.TrainTwoPhase();
  EXPECT_EQ(ref.total_iterations, ref_config.PlannedIterations());
  ASSERT_FALSE(ref.reward_curve.empty());

  // "Crash" after 3 iterations — one past the bootstrap/traversal boundary, so
  // the resume replays a phase transition and a consumed objective-mix draw.
  OfflineTrainConfig part_config = SmallTrainConfig();
  part_config.checkpoint_interval = 1;
  part_config.checkpoint_path = dir + "/robustness_part.ckpt";
  part_config.stop_after_iterations = 3;
  Rng rng_b(part_config.seed);
  PreferenceActorCritic model_b(part_config.mocc, &rng_b);
  OfflineTrainer trainer_b(&model_b, part_config);
  const OfflineTrainResult partial = trainer_b.TrainTwoPhase();
  EXPECT_EQ(partial.total_iterations, 3);

  // Resume in a fresh "process": new model, new trainer, checkpoint only.
  OfflineTrainConfig resume_config = SmallTrainConfig();
  resume_config.checkpoint_interval = 1;
  resume_config.checkpoint_path = part_config.checkpoint_path;
  resume_config.resume = true;
  Rng rng_c(resume_config.seed);
  PreferenceActorCritic model_c(resume_config.mocc, &rng_c);
  OfflineTrainer trainer_c(&model_c, resume_config);
  const OfflineTrainResult resumed = trainer_c.TrainTwoPhase();
  EXPECT_FALSE(resumed.resume_failed);
  EXPECT_EQ(resumed.start_iteration, 3);
  EXPECT_EQ(resumed.total_iterations, ref.total_iterations);

  // Bit-identity: every reward-curve entry and every model parameter byte.
  ASSERT_EQ(resumed.reward_curve.size(), ref.reward_curve.size());
  for (size_t i = 0; i < ref.reward_curve.size(); ++i) {
    EXPECT_EQ(resumed.reward_curve[i], ref.reward_curve[i]) << "iteration " << i;
  }
  EXPECT_EQ(ModelBytes(model_c), ModelBytes(model_a));
}

TEST(CheckpointResumeTest, MissingCheckpointStartsFresh) {
  OfflineTrainConfig config = SmallTrainConfig();
  config.checkpoint_path = ::testing::TempDir() + "/robustness_never_written.ckpt";
  std::remove(config.checkpoint_path.c_str());
  config.resume = true;
  config.stop_after_iterations = 1;
  Rng rng(config.seed);
  PreferenceActorCritic model(config.mocc, &rng);
  OfflineTrainer trainer(&model, config);
  const OfflineTrainResult result = trainer.TrainTwoPhase();
  EXPECT_FALSE(result.resume_failed);
  EXPECT_EQ(result.start_iteration, 0);
  EXPECT_EQ(result.total_iterations, 1);
}

TEST(CheckpointResumeTest, CorruptCheckpointFailsCleanly) {
  OfflineTrainConfig config = SmallTrainConfig();
  config.checkpoint_path = ::testing::TempDir() + "/robustness_corrupt.ckpt";
  ASSERT_TRUE(WriteFile(config.checkpoint_path, "MOCCCKPT garbage that is no checkpoint"));
  config.resume = true;
  Rng rng(config.seed);
  PreferenceActorCritic model(config.mocc, &rng);
  OfflineTrainer trainer(&model, config);
  const OfflineTrainResult result = trainer.TrainTwoPhase();
  EXPECT_TRUE(result.resume_failed);
  EXPECT_EQ(result.total_iterations, 0);
  EXPECT_TRUE(result.reward_curve.empty());
}

TEST(CheckpointResumeTest, ConfigMismatchedCheckpointRejected) {
  const std::string path = ::testing::TempDir() + "/robustness_mismatch.ckpt";
  {
    OfflineTrainConfig config = SmallTrainConfig(11);
    config.checkpoint_path = path;
    config.checkpoint_interval = 1;
    config.stop_after_iterations = 1;
    Rng rng(config.seed);
    PreferenceActorCritic model(config.mocc, &rng);
    OfflineTrainer trainer(&model, config);
    ASSERT_EQ(trainer.TrainTwoPhase().total_iterations, 1);
  }
  // Same checkpoint, different seed: the config fingerprint must reject it —
  // resuming it would silently break the bit-identity contract.
  OfflineTrainConfig other = SmallTrainConfig(12);
  other.checkpoint_path = path;
  other.resume = true;
  Rng rng(other.seed);
  PreferenceActorCritic model(other.mocc, &rng);
  OfflineTrainer trainer(&model, other);
  EXPECT_TRUE(trainer.TrainTwoPhase().resume_failed);
}

// --- Training watchdog ------------------------------------------------------

TEST(TrainingWatchdogTest, RollsBackPoisonedParameters) {
  OfflineTrainConfig config = SmallTrainConfig(13);
  Rng rng(config.seed);
  PreferenceActorCritic model(config.mocc, &rng);
  bool poisoned = false;  // the hook re-fires on the retry; poison only once
  config.iteration_hook = [&](int iteration, PpoStats* /*stats*/) {
    if (iteration == 1 && !poisoned) {
      poisoned = true;
      model.Params()[0].value->data()[0] = kNaN;
    }
  };
  OfflineTrainer trainer(&model, config);
  const OfflineTrainResult result = trainer.TrainTwoPhase();
  EXPECT_TRUE(poisoned);
  EXPECT_EQ(result.watchdog_rollbacks, 1);
  EXPECT_FALSE(result.watchdog_failed);
  EXPECT_EQ(result.total_iterations, config.PlannedIterations());
  EXPECT_TRUE(AllParamsFinite(&model));
}

TEST(TrainingWatchdogTest, TreatsKlBlowupAsDivergence) {
  OfflineTrainConfig config = SmallTrainConfig(15);
  config.watchdog_kl_limit = 5.0;
  bool fired = false;
  config.iteration_hook = [&](int iteration, PpoStats* stats) {
    if (iteration == 0 && !fired) {
      fired = true;
      stats->approx_kl = 1e9;  // diverging update
    }
  };
  Rng rng(config.seed);
  PreferenceActorCritic model(config.mocc, &rng);
  OfflineTrainer trainer(&model, config);
  const OfflineTrainResult result = trainer.TrainTwoPhase();
  EXPECT_EQ(result.watchdog_rollbacks, 1);
  EXPECT_FALSE(result.watchdog_failed);
  EXPECT_EQ(result.total_iterations, config.PlannedIterations());
}

TEST(TrainingWatchdogTest, BoundedRetriesThenCleanFailure) {
  OfflineTrainConfig config = SmallTrainConfig(17);
  config.max_watchdog_retries = 2;
  // Unconditionally unhealthy: the first iteration can never succeed.
  config.iteration_hook = [](int iteration, PpoStats* stats) {
    if (iteration == 0) {
      stats->value_loss = kNaN;
    }
  };
  Rng rng(config.seed);
  PreferenceActorCritic model(config.mocc, &rng);
  OfflineTrainer trainer(&model, config);
  const OfflineTrainResult result = trainer.TrainTwoPhase();
  EXPECT_TRUE(result.watchdog_failed);
  EXPECT_EQ(result.watchdog_rollbacks, 2);
  EXPECT_EQ(result.total_iterations, 0);
  EXPECT_TRUE(result.reward_curve.empty());
  // The rollback left the model at the last healthy (initial) state.
  EXPECT_TRUE(AllParamsFinite(&model));
}

// --- Deployment guardrails: circuit breaker ---------------------------------

TEST(GuardedPolicyTest, BreakerTripsHoldsOffAndRecovers) {
  GuardedPolicy::Options options;
  options.open_intervals = 3;
  options.close_after_valid_probes = 2;
  GuardedPolicy guard(options);
  ASSERT_EQ(guard.state(), GuardedPolicy::State::kClosed);
  EXPECT_TRUE(guard.BeginInterval());
  EXPECT_TRUE(guard.ValidateDecision(0.1, 2.1e6, 2e6));

  // A NaN action trips even though the Eq. (1) update would map it to "rate
  // unchanged" (every NaN comparison is false).
  EXPECT_FALSE(guard.ValidateDecision(kNaN, 2e6, 2e6));
  EXPECT_EQ(guard.state(), GuardedPolicy::State::kOpen);
  EXPECT_EQ(guard.trip_count(), 1);

  // Open: the fallback owns open_intervals - 1 intervals, then a probe.
  EXPECT_FALSE(guard.BeginInterval());
  EXPECT_FALSE(guard.BeginInterval());
  EXPECT_TRUE(guard.BeginInterval());
  EXPECT_EQ(guard.state(), GuardedPolicy::State::kHalfOpen);

  // Two consecutive valid probes close the breaker.
  EXPECT_TRUE(guard.ValidateDecision(0.05, 2.05e6, 2e6));
  EXPECT_EQ(guard.state(), GuardedPolicy::State::kHalfOpen);
  EXPECT_TRUE(guard.BeginInterval());
  EXPECT_TRUE(guard.ValidateDecision(-0.05, 1.95e6, 2e6));
  EXPECT_EQ(guard.state(), GuardedPolicy::State::kClosed);
  EXPECT_EQ(guard.recovery_count(), 1);

  // Violations of the per-MI step bound and the absolute rate band also trip.
  EXPECT_FALSE(guard.ValidateDecision(50.0, 20e6, 2e6));
  EXPECT_EQ(guard.trip_count(), 2);
}

TEST(GuardedPolicyTest, BadHalfOpenProbeReopens) {
  GuardedPolicy::Options options;
  options.open_intervals = 2;
  GuardedPolicy guard(options);
  EXPECT_FALSE(guard.ValidateDecision(kNaN, 2e6, 2e6));
  EXPECT_FALSE(guard.BeginInterval());
  EXPECT_TRUE(guard.BeginInterval());  // half-open probe
  EXPECT_FALSE(guard.ValidateDecision(kNaN, 2e6, 2e6));
  EXPECT_EQ(guard.state(), GuardedPolicy::State::kOpen);
  EXPECT_EQ(guard.trip_count(), 2);
  EXPECT_EQ(guard.recovery_count(), 0);
}

TEST(GuardedPolicyTest, AbsoluteRateBandViolationTrips) {
  GuardedPolicy guard(GuardedPolicy::Options{});
  // Within the step factor of the previous rate but far beyond max_rate_bps * f.
  EXPECT_FALSE(guard.ValidateDecision(0.5, 1.2e9, 1e9));
  EXPECT_EQ(guard.trip_count(), 1);
}

TEST(GuardedControllerTest, NanPolicyFallsBackToCubicAndRecovers) {
  MoccConfig config;
  config.history_len_eta = 4;
  config.pn_hidden = 8;
  config.pn_out = 8;
  config.trunk_hidden = {16, 8};
  Rng rng(41);
  auto model = std::make_shared<PreferenceActorCritic>(config, &rng);
  auto cc = PolicySpec().WithModel(model).WithGuard(true).MakeController(
      BalancedObjective(), 2e6);
  ASSERT_NE(cc->guard(), nullptr);
  const MonitorReport report = MakeReport();

  // Healthy policy: decisions pass, nothing trips.
  cc->OnMonitorInterval(report);
  EXPECT_EQ(cc->guard()->trip_count(), 0);
  EXPECT_EQ(cc->guard()->state(), GuardedPolicy::State::kClosed);

  // Corrupt the model (every parameter NaN — a trashed checkpoint in
  // deployment). The very next decision must trip the breaker and the flow
  // must continue at a finite CUBIC-derived rate, not abort or emit NaN.
  std::vector<std::vector<double>> saved;
  for (auto& p : model->Params()) {
    saved.emplace_back(p.value->data(), p.value->data() + p.value->size());
    for (size_t i = 0; i < p.value->size(); ++i) {
      p.value->data()[i] = kNaN;
    }
  }
  cc->OnMonitorInterval(report);
  EXPECT_EQ(cc->guard()->trip_count(), 1);
  EXPECT_EQ(cc->guard()->state(), GuardedPolicy::State::kOpen);
  ASSERT_TRUE(std::isfinite(cc->PacingRateBps()));
  EXPECT_GT(cc->PacingRateBps(), 0.0);

  // Open breaker: the fallback owns the next open_intervals - 1 MIs and
  // inference is skipped entirely (no NaN forwards burned).
  const int64_t inferences_at_trip = cc->inference_count();
  for (int i = 0; i < 7; ++i) {  // default open_intervals = 8
    cc->OnMonitorInterval(report);
    ASSERT_TRUE(std::isfinite(cc->PacingRateBps())) << "interval " << i;
    EXPECT_GT(cc->PacingRateBps(), 0.0);
  }
  EXPECT_EQ(cc->inference_count(), inferences_at_trip);
  EXPECT_GE(cc->guard()->fallback_interval_count(), 7);

  // Heal the model (the corrupt checkpoint was replaced); the half-open probes
  // see sane outputs and restore the policy.
  size_t pi = 0;
  for (auto& p : model->Params()) {
    for (size_t i = 0; i < p.value->size(); ++i) {
      p.value->data()[i] = saved[pi][i];
    }
    ++pi;
  }
  cc->OnMonitorInterval(report);  // half-open probe 1
  cc->OnMonitorInterval(report);  // probe 2 -> closed
  EXPECT_EQ(cc->guard()->state(), GuardedPolicy::State::kClosed);
  EXPECT_EQ(cc->guard()->recovery_count(), 1);
  EXPECT_EQ(cc->guard()->trip_count(), 1);
  EXPECT_GT(cc->inference_count(), inferences_at_trip);
}

// --- Fault-injected scenarios: determinism ----------------------------------

CcEnvConfig BaseEnvConfig() { return MoccConfig{}.MakeEnvConfig(); }

TEST(FaultScenarioTest, CatalogEntriesExistAndCarryFaults) {
  for (const char* name : {"blackout", "flaky-link", "loss-burst"}) {
    const Scenario* scenario = ScenarioRegistry::Global().Find(name);
    ASSERT_NE(scenario, nullptr) << name;
    EXPECT_TRUE(scenario->IsMultiFlow()) << name;
    EXPECT_FALSE(scenario->fault.empty()) << name;
  }
  EXPECT_GT(ScenarioRegistry::Global().Find("blackout")->fault.blackout_period_s, 0.0);
  EXPECT_GT(ScenarioRegistry::Global().Find("loss-burst")->fault.loss_burst_rate, 0.0);
  EXPECT_TRUE(ScenarioRegistry::Global().Find("flaky-link")->fault.randomize_phase);
}

TEST(FaultScenarioTest, CollectionSerialVsPoolBitIdentical) {
  auto collect = [](bool parallel) {
    MoccConfig mocc;
    Rng rng(31);
    PreferenceActorCritic model(mocc, &rng);
    PpoTrainer trainer(&model, mocc.MakePpoConfig(33));
    trainer.set_parallel_collection(parallel);

    std::string error;
    const auto scenarios = ScenarioRegistry::Global().ResolveList(
        "blackout,flaky-link,loss-burst", &error);
    EXPECT_TRUE(scenarios.has_value()) << error;
    std::vector<std::unique_ptr<MultiFlowCcEnv>> envs;
    std::vector<PpoTrainer::RolloutSource> sources;
    uint64_t seed = 300;
    for (const Scenario& scenario : *scenarios) {
      envs.push_back(scenario.MakeMultiFlowEnv(BaseEnvConfig(), seed++));
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
  ASSERT_EQ(pool.size(), 6u);  // 3 scenarios x 2 agents
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

TEST(FaultScenarioTest, RandomizedPhaseSeedReproducible) {
  // flaky-link randomizes the fault phase per episode from the env Rng: the
  // same seed must reproduce the episode bit-identically, a different seed
  // must not.
  const Scenario* scenario = ScenarioRegistry::Global().Find("flaky-link");
  ASSERT_NE(scenario, nullptr);
  auto collect = [&](uint64_t env_seed) {
    MoccConfig mocc;
    Rng rng(37);
    PreferenceActorCritic model(mocc, &rng);
    PpoTrainer trainer(&model, mocc.MakePpoConfig(39));
    auto env = scenario->MakeMultiFlowEnv(BaseEnvConfig(), env_seed);
    env->SetObjective(BalancedObjective());
    return trainer.CollectVectorRollout(env.get(), 64);
  };
  const auto a = collect(5);
  const auto b = collect(5);
  const auto c = collect(6);
  ASSERT_EQ(a.size(), b.size());
  bool differs_across_seeds = false;
  for (size_t buf = 0; buf < a.size(); ++buf) {
    ASSERT_EQ(a[buf].size(), b[buf].size());
    for (size_t i = 0; i < a[buf].size(); ++i) {
      ASSERT_EQ(a[buf].transitions[i].reward, b[buf].transitions[i].reward);
      ASSERT_EQ(a[buf].transitions[i].action, b[buf].transitions[i].action);
    }
    if (buf < c.size()) {
      for (size_t i = 0; i < std::min(a[buf].size(), c[buf].size()); ++i) {
        differs_across_seeds |=
            a[buf].transitions[i].reward != c[buf].transitions[i].reward;
      }
    }
  }
  EXPECT_TRUE(differs_across_seeds);
}

TEST(FaultScenarioTest, InjectedFaultActuallyChangesDynamics) {
  // Same scenario with the fault stripped, same seed: the trajectories must
  // diverge — otherwise the injection is wired to nothing.
  const Scenario* blackout = ScenarioRegistry::Global().Find("blackout");
  ASSERT_NE(blackout, nullptr);
  Scenario clean = *blackout;
  clean.fault = FaultSpec{};
  auto collect = [](const Scenario& scenario) {
    MoccConfig mocc;
    Rng rng(43);
    PreferenceActorCritic model(mocc, &rng);
    PpoTrainer trainer(&model, mocc.MakePpoConfig(45));
    auto env = scenario.MakeMultiFlowEnv(BaseEnvConfig(), 7);
    env->SetObjective(BalancedObjective());
    return trainer.CollectVectorRollout(env.get(), 96);
  };
  const auto faulted = collect(*blackout);
  const auto unfaulted = collect(clean);
  ASSERT_EQ(faulted.size(), unfaulted.size());
  bool any_difference = false;
  for (size_t buf = 0; buf < faulted.size(); ++buf) {
    if (faulted[buf].size() != unfaulted[buf].size()) {
      any_difference = true;
      break;
    }
    for (size_t i = 0; i < faulted[buf].size(); ++i) {
      any_difference |=
          faulted[buf].transitions[i].reward != unfaulted[buf].transitions[i].reward;
    }
  }
  EXPECT_TRUE(any_difference);
}

}  // namespace
}  // namespace mocc
