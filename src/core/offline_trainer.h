// Offline pre-training of the MOCC model (§4.2): the two-phase strategy —
// bootstrapping (train a small set of pivot objectives to convergence) followed by fast
// traversing (visit the remaining landmark objectives a few PPO steps each, in the
// Algorithm-1 neighborhood order, cycling until the round budget is exhausted) — plus the
// two baselines the paper compares against in Figure 19: per-objective individual
// training, and two-phase training with parallel (multi-environment, multi-threaded)
// rollout collection.
//
// With more than one environment slot (parallel_envs > 1 or any scenario list),
// rollouts are collected concurrently on the shared ThreadPool through
// PpoTrainer::CollectSourcesParallel, in waves until every objective of the
// iteration is collected. Every environment is constructed with its own
// deterministic seed and every collection round derives per-env Rng streams on the
// trainer thread (determinism contract in src/common/thread_pool.h), so a training
// run's reward curve and final weights are bit-reproducible for a fixed
// config.seed, regardless of core count.
#ifndef MOCC_SRC_CORE_OFFLINE_TRAINER_H_
#define MOCC_SRC_CORE_OFFLINE_TRAINER_H_

#include <csignal>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/core/mocc_config.h"
#include "src/core/objective_space.h"
#include "src/core/preference_model.h"
#include "src/envs/cc_env.h"
#include "src/envs/scenario.h"
#include "src/rl/ppo.h"

namespace mocc {

struct OfflineTrainConfig {
  MoccConfig mocc;
  // Bootstrap-phase iterations; each jointly trains all bootstrap objectives.
  int bootstrap_iterations = 40;
  // PPO iterations per objective visit during fast traversing ("a few steps", §4.2).
  int traversal_iterations_per_objective = 1;
  // Cyclic passes over the sorted objective list (phase 2).
  int traversal_rounds = 2;
  // Number of parallel rollout environments (1 = serial).
  int parallel_envs = 1;
  // Every traversal update mixes the visited objective with this many previously
  // visited ones (fresh rollouts each). Mixing objectives inside one update batch is
  // what forces the preference sub-network to condition on w⃗ at small iteration
  // budgets (the conditioned-network training of Abels et al., Appendix A); 0 disables
  // (one objective per update, exactly Algorithm 1's schedule).
  int traversal_mix_objectives = 3;
  // Entropy-coefficient schedule (overrides the PpoConfig default so exploration decays
  // over the actual budget of this run, not the paper's 1000 iterations).
  double entropy_start = 0.05;
  double entropy_end = 0.0005;
  // Learning-rate multiplier for the fast-traversing phase: traversal transfers from an
  // already-trained base model, so it refines rather than re-learns.
  double traversal_lr_factor = 0.3;
  std::vector<WeightVector> bootstrap_objectives = DefaultBootstrapObjectives();
  // Scenario-sampled training: when non-empty, environment slot i runs
  // scenarios[i % scenarios.size()] — single-flow scenarios as CcEnv episodes,
  // multi-flow scenarios as shared-bottleneck MultiFlowCcEnv episodes whose per-agent
  // trajectories all feed the joint PPO update. The trainer allocates
  // max(parallel_envs, scenarios.size()) slots so every listed scenario trains even
  // when parallel_envs is smaller. Empty keeps the paper's single-flow sampled-link
  // training. Resolve names via ScenarioRegistry::Global().
  //
  // Scenarios with an ObjectivePlan (mixed-objective, sampled-objective, ...) assign
  // per-agent weights themselves: the trainer leaves those slots' objectives alone
  // and their heterogeneous trajectories join the same joint update, which is what
  // trains the preference sub-network to serve different objectives at once.
  std::vector<Scenario> scenarios;
  uint64_t seed = 7;

  // --- Crash safety & training watchdog (TrainTwoPhase only) ---
  // When non-empty, a checkpoint (model + optimizer + every Rng stream + iteration
  // counters + per-env cross-episode state) is written here every
  // checkpoint_interval completed iterations and at every stop point, via
  // temp-file + atomic rename (a crash mid-write never leaves a torn file).
  std::string checkpoint_path;
  int checkpoint_interval = 20;
  // Resume from checkpoint_path: training continues bit-identically with an
  // uninterrupted run of the same config. A missing file starts fresh; a corrupt
  // or config-mismatched file fails cleanly (OfflineTrainResult::resume_failed).
  bool resume = false;
  // Watchdog: every iteration's stats (and the model parameters) are checked for
  // non-finite values and |approx_kl| against this limit; a failure rolls model,
  // optimizer, Rng streams and env state back to the pre-iteration snapshot and
  // retries at a backed-off learning rate — up to max_watchdog_retries attempts,
  // then the run stops cleanly with watchdog_failed and the last good state.
  int max_watchdog_retries = 3;
  double watchdog_lr_backoff = 0.5;
  double watchdog_kl_limit = 5.0;
  // Cooperative interruption: when non-null and set nonzero (e.g. by a SIGINT
  // handler), training stops at the next iteration boundary, writes a final
  // checkpoint and returns with OfflineTrainResult::interrupted.
  const volatile std::sig_atomic_t* interrupt_flag = nullptr;
  // Test hooks. stop_after_iterations (< 0 = disabled) stops cleanly — with a
  // final checkpoint — once that many global iterations have completed.
  int stop_after_iterations = -1;
  // iteration_hook runs after each PPO iteration but before the watchdog health
  // check, with the global iteration index and mutable stats — tests inject
  // failures (poisoned parameters, forced-NaN stats) through it to exercise the
  // rollback path. Note a rollback re-invokes the hook with the same index; hooks
  // that should fire once must track that themselves.
  std::function<void(int, PpoStats*)> iteration_hook;

  // Total PPO iterations this configuration will run.
  int PlannedIterations() const;
};

struct OfflineTrainResult {
  // Mean per-step training reward of every PPO iteration, in order. On resume the
  // checkpointed prefix is restored, so a completed resumed run's curve equals the
  // uninterrupted run's.
  std::vector<double> reward_curve;
  int total_iterations = 0;
  double wall_seconds = 0.0;
  // The traversal order actually used (indices into the landmark grid).
  std::vector<int> traversal_order;
  // Iteration the run resumed from (0 = fresh start).
  int start_iteration = 0;
  // Watchdog rollbacks performed across the run (restored on resume).
  int watchdog_rollbacks = 0;
  // Watchdog retries exhausted: the run stopped early with the model at the last
  // healthy state (checkpointed when checkpoint_path is set).
  bool watchdog_failed = false;
  // Stopped via interrupt_flag; a final checkpoint was written first.
  bool interrupted = false;
  // resume was requested but checkpoint_path held a corrupt or config-mismatched
  // checkpoint; nothing was trained.
  bool resume_failed = false;
};

class OfflineTrainer {
 public:
  // `model` must outlive the trainer and must have been built from config.mocc.
  OfflineTrainer(PreferenceActorCritic* model, const OfflineTrainConfig& config);

  // The paper's method: bootstrapping + neighborhood-ordered fast traversing.
  OfflineTrainResult TrainTwoPhase();

  // Figure 19 baseline: every landmark objective trained independently for the full
  // bootstrap budget (no transfer). Vastly slower; provided for the speedup comparison.
  OfflineTrainResult TrainIndividually();

  // Landmark grid of this configuration (ω objectives).
  const std::vector<WeightVector>& landmarks() const { return landmarks_; }

  // Environment slots actually allocated: max(1, parallel_envs, scenarios.size()).
  int slot_count() const { return static_cast<int>(slots_.size()); }

  PpoTrainer& ppo() { return ppo_; }

 private:
  // One PPO iteration: fresh rollouts for every objective in `objectives` (the total
  // step budget split evenly), one joint clipped-surrogate update.
  PpoStats RunIteration(const std::vector<WeightVector>& objectives);

  // One training environment slot — exactly one pointer set, depending on whether the
  // slot's scenario is single- or multi-flow.
  struct EnvSlot {
    CcEnv* single = nullptr;
    MultiFlowCcEnv* multi = nullptr;
  };

  void SetSlotObjective(const EnvSlot& slot, const WeightVector& w);
  // The multi-slot iteration: every slot collects (in parallel, deterministic), in
  // waves until every objective is collected, and all per-flow buffers join one
  // update.
  PpoStats RunScenarioIteration(const std::vector<WeightVector>& objectives);

  // Checkpoint payload ("MOCCCKPT"): config fingerprint + counters + reward curve +
  // every Rng stream + model + optimizer + per-env cross-episode state. The same
  // blob doubles as the watchdog's in-memory pre-iteration snapshot.
  std::string SerializeTrainerBlob(const OfflineTrainResult& result) const;
  bool RestoreTrainerBlob(const std::string& blob, int* start_iteration,
                          OfflineTrainResult* result);
  bool WriteCheckpoint(const OfflineTrainResult& result) const;
  void SerializeEnvStates(BinaryWriter* w) const;
  bool DeserializeEnvStates(BinaryReader* r);
  // Non-finite stats/params or |approx_kl| beyond the limit = unhealthy.
  bool IterationHealthy(const PpoStats& stats);
  // One watchdog-supervised iteration: snapshot, run, health-check, roll back and
  // retry at a backed-off learning rate. False = retries exhausted (run must stop).
  bool ExecuteIteration(const std::vector<WeightVector>& objectives,
                        OfflineTrainResult* result);

  PreferenceActorCritic* model_;
  OfflineTrainConfig config_;
  std::vector<WeightVector> landmarks_;
  ObjectiveGraph graph_;
  PpoTrainer ppo_;
  std::vector<std::unique_ptr<CcEnv>> envs_;
  std::vector<std::unique_ptr<MultiFlowCcEnv>> multi_envs_;
  std::vector<EnvSlot> slots_;  // views into envs_ / multi_envs_, in slot order
  Rng mix_rng_;
};

}  // namespace mocc

#endif  // MOCC_SRC_CORE_OFFLINE_TRAINER_H_
