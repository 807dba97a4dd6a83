// Workload `train`: OfflineTrainer::TrainTwoPhase from a fresh seeded model to
// its final crash-safe checkpoint — the researcher's loop, and the only
// workload that runs the PPO update.
//
// Size: the paper's landmark grid (omega = 36), kBootstrapIterations bootstrap
// iterations plus one traversal round, and four scenario slots that cover the
// env families (fluid single flow, many-flow contention, a multi-hop
// heterogeneous-objective path with CUBIC cross traffic, and a RED/ECN
// bottleneck). Collection runs serially (set_parallel_collection(false)),
// which the pool contract makes bit-identical to pooled collection.
//
// The traced run adds a twin: the same schedule replayed over a PpoTrainer
// with the same slots and seeds, its envs wrapped in span decorators. The twin
// must end with weights bit-identical to the real trainer's.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "src/core/objective_space.h"
#include "src/core/offline_trainer.h"
#include "src/core/preference_model.h"
#include "src/envs/scenario.h"

namespace perfbench {
namespace {

using namespace mocc;

constexpr int kBootstrapIterations = 16;
const char* const kTrainScenarios = "cellular,many-flow,mixed-objective-parking-lot,red-ecn";

OfflineTrainConfig MakeConfig(uint64_t seed, const std::string& checkpoint_path) {
  OfflineTrainConfig config;
  config.seed = seed;
  config.bootstrap_iterations = kBootstrapIterations;
  config.traversal_rounds = 1;
  config.parallel_envs = 1;
  std::string error;
  config.scenarios = *ScenarioRegistry::Global().ResolveList(kTrainScenarios, &error);
  config.checkpoint_path = checkpoint_path;
  // Stopping exactly at the planned count makes the trainer write its final
  // checkpoint, so the timed span ends when the result is durable.
  config.stop_after_iterations = config.PlannedIterations();
  return config;
}

// One timed training: returns the hook timestamps (one per iteration, relative
// to the start of TrainTwoPhase) and the total wall time in seconds.
struct TrainingRun {
  int64_t start_ns = 0;  // when TrainTwoPhase was called
  double setup_s = 0.0;
  double wall_s = 0.0;
  std::vector<double> hook_s;  // iteration end times
  OfflineTrainResult result;
  uint64_t digest = 0;
  bool finite = false;
  size_t parameters = 0;
};

TrainingRun RunTraining(uint64_t seed, const std::string& checkpoint_path) {
  TrainingRun run;
  const int64_t setup_start = NowNs();
  OfflineTrainConfig config = MakeConfig(seed, checkpoint_path);
  int64_t t0 = 0;
  config.iteration_hook = [&run, &t0](int, PpoStats*) {
    run.hook_s.push_back((NowNs() - t0) * 1e-9);
  };
  Rng rng(config.seed);
  auto model = std::make_unique<PreferenceActorCritic>(config.mocc, &rng);
  OfflineTrainer trainer(model.get(), config);
  trainer.ppo().set_parallel_collection(false);
  run.setup_s = SecondsSince(setup_start);
  t0 = NowNs();
  run.start_ns = t0;
  run.result = trainer.TrainTwoPhase();
  run.wall_s = SecondsSince(t0);
  run.digest = ModelDigest(model.get(), &run.finite);
  run.parameters = model->ParameterCount();
  return run;
}

// Reloads the final checkpoint through the trainer's resume path and checks
// it restores the trained weights exactly.
void CheckCheckpoint(uint64_t seed, const std::string& checkpoint_path,
                     const TrainingRun& run, Result* result) {
  OfflineTrainConfig config = MakeConfig(seed, checkpoint_path);
  config.resume = true;
  Rng rng(config.seed);
  PreferenceActorCritic model(config.mocc, &rng);
  OfflineTrainer trainer(&model, config);
  const OfflineTrainResult resumed = trainer.TrainTwoPhase();
  bool finite = false;
  const uint64_t digest = ModelDigest(&model, &finite);
  const int planned = config.PlannedIterations();
  result->Check(!resumed.resume_failed && resumed.start_iteration == planned,
                "final checkpoint reloads at iteration " + std::to_string(planned));
  result->Check(model.ParameterCount() == run.parameters &&
                    run.parameters == PreferenceActorCritic(config.mocc, &rng).ParameterCount(),
                "reloaded parameter count matches the architecture");
  result->Check(digest == run.digest && finite,
                "reloaded checkpoint weights equal the trained weights and are finite");
}

// Checks one training's result; returns the failed-iteration count.
int64_t CheckTraining(const TrainingRun& run, int planned, Result* result) {
  result->Check(run.result.total_iterations == planned &&
                    static_cast<int>(run.hook_s.size()) ==
                        planned + run.result.watchdog_rollbacks,
                "training ran PlannedIterations() = " + std::to_string(planned));
  result->Check(!run.result.watchdog_failed && !run.result.interrupted &&
                    !run.result.resume_failed,
                "training finished cleanly");
  result->Check(run.finite, "trained weights are finite");
  return run.result.watchdog_rollbacks;
}

// --- Traced twin -------------------------------------------------------------

class TracedEnv : public Env {
 public:
  TracedEnv(Env* inner, Tracer* tracer) : inner_(inner), tracer_(tracer) {}
  std::vector<double> Reset() override {
    ScopedSpan span(tracer_, "envs.reset");
    return inner_->Reset();
  }
  StepResult Step(double action) override {
    ScopedSpan span(tracer_, "envs.step");
    return inner_->Step(action);
  }
  size_t ObservationDim() const override { return inner_->ObservationDim(); }

 private:
  Env* inner_;
  Tracer* tracer_;
};

class TracedVectorEnv : public VectorEnv {
 public:
  TracedVectorEnv(VectorEnv* inner, Tracer* tracer) : inner_(inner), tracer_(tracer) {}
  std::vector<std::vector<double>> Reset() override {
    ScopedSpan span(tracer_, "envs.reset");
    return inner_->Reset();
  }
  VectorStepResult Step(const std::vector<double>& actions) override {
    ScopedSpan span(tracer_, "envs.step");
    return inner_->Step(actions);
  }
  bool AgentActive(int agent) const override { return inner_->AgentActive(agent); }
  int NumAgents() const override { return inner_->NumAgents(); }
  size_t ObservationDim() const override { return inner_->ObservationDim(); }

 private:
  VectorEnv* inner_;
  Tracer* tracer_;
};

// Replays OfflineTrainer::TrainTwoPhase's public calls over a PpoTrainer with
// the same slots, seeds and schedule (no watchdog snapshots or checkpoints,
// which draw no randomness), spanning every collection, env call and update.
class TrainTwin {
 public:
  TrainTwin(const OfflineTrainConfig& config, Tracer* tracer)
      : config_(config), tracer_(tracer), rng_(config.seed),
        model_(config.mocc, &rng_),
        ppo_(&model_, [&config] {
          PpoConfig ppo = config.mocc.MakePpoConfig(config.seed);
          ppo.entropy_start = config.entropy_start;
          ppo.entropy_end = config.entropy_end;
          ppo.entropy_decay_iters = std::max(1, config.PlannedIterations());
          return ppo;
        }()),
        mix_rng_(config.seed * 31 + 5) {
    ppo_.set_parallel_collection(false);
    const int n_slots =
        std::max(std::max(1, config.parallel_envs), static_cast<int>(config.scenarios.size()));
    for (int i = 0; i < n_slots; ++i) {
      const Scenario& scenario =
          config.scenarios[static_cast<size_t>(i) % config.scenarios.size()];
      const uint64_t seed = config.seed * 977 + 13 * i + 1;
      PpoTrainer::RolloutSource source;
      if (scenario.IsMultiFlow()) {
        multi_.push_back(scenario.MakeMultiFlowEnv(config.mocc.MakeEnvConfig(), seed));
        traced_multi_.push_back(std::make_unique<TracedVectorEnv>(multi_.back().get(), tracer));
        source.vec = traced_multi_.back().get();
        trajectories_per_wave_ += multi_.back()->NumAgents();
        slot_multi_.push_back(multi_.back().get());
        slot_single_.push_back(nullptr);
      } else {
        single_.push_back(scenario.MakeSingleFlowEnv(config.mocc.MakeEnvConfig(), seed));
        traced_single_.push_back(std::make_unique<TracedEnv>(single_.back().get(), tracer));
        source.env = traced_single_.back().get();
        trajectories_per_wave_ += 1;
        slot_multi_.push_back(nullptr);
        slot_single_.push_back(single_.back().get());
      }
      sources_.push_back(source);
    }
  }

  void Train() {
    const std::vector<WeightVector> landmarks =
        GenerateWeightGrid(config_.mocc.landmark_step_divisor);
    const ObjectiveGraph graph(landmarks, config_.mocc.landmark_step_divisor);
    int k = 0;
    for (int i = 0; i < config_.bootstrap_iterations; ++i) {
      Iteration(k++, config_.bootstrap_objectives);
    }
    ppo_.set_learning_rate(config_.mocc.learning_rate * config_.traversal_lr_factor);
    std::vector<WeightVector> visited = config_.bootstrap_objectives;
    for (int round = 0; round < config_.traversal_rounds; ++round) {
      for (int idx : graph.SortForTraversal(config_.bootstrap_objectives)) {
        const WeightVector& current = landmarks[static_cast<size_t>(idx)];
        for (int i = 0; i < config_.traversal_iterations_per_objective; ++i) {
          std::vector<WeightVector> batch = {current};
          for (int m = 0; m < config_.traversal_mix_objectives; ++m) {
            batch.push_back(visited[static_cast<size_t>(
                mix_rng_.UniformInt(0, static_cast<int64_t>(visited.size()) - 1))]);
          }
          Iteration(k++, batch);
        }
        visited.push_back(current);
      }
    }
  }

  // Times `rounds` collections with pooled and with serial execution (an
  // information-only ratio; the pool is the one place threads run).
  double PoolSpeedup(int rounds) {
    double t[2] = {0.0, 0.0};
    for (int mode = 0; mode < 2; ++mode) {
      ppo_.set_parallel_collection(mode == 0);
      const int64_t start = NowNs();
      for (int r = 0; r < rounds; ++r) {
        ppo_.CollectSourcesParallel(raw_sources(), CollectSteps(1));
      }
      t[mode] = SecondsSince(start);
    }
    ppo_.set_parallel_collection(false);
    return t[0] > 0.0 ? t[1] / t[0] : 0.0;
  }

  PreferenceActorCritic* model() { return &model_; }
  double samples() const { return samples_; }

 private:
  std::vector<PpoTrainer::RolloutSource> raw_sources() const {
    std::vector<PpoTrainer::RolloutSource> raw;
    for (size_t i = 0; i < sources_.size(); ++i) {
      PpoTrainer::RolloutSource s;
      s.env = slot_single_[i];
      s.vec = slot_multi_[i];
      raw.push_back(s);
    }
    return raw;
  }

  int CollectSteps(size_t waves) const {
    return std::max(64, ppo_.config().rollout_steps /
                            std::max(1, static_cast<int>(waves) * trajectories_per_wave_));
  }

  // OfflineTrainer::RunScenarioIteration over the decorated sources.
  void Iteration(int k, const std::vector<WeightVector>& objectives) {
    if (tracer_ != nullptr) tracer_->SetGroup(k);
    ScopedSpan iteration(tracer_, "rl.iteration");
    const size_t slots = sources_.size();
    const size_t waves = (objectives.size() + slots - 1) / slots;
    std::vector<RolloutBuffer> buffers;
    for (size_t wave = 0; wave < waves; ++wave) {
      for (size_t i = 0; i < slots; ++i) {
        const WeightVector& w = objectives[(wave * slots + i) % objectives.size()];
        if (slot_multi_[i] != nullptr) {
          if (!slot_multi_[i]->config().objectives.OverridesEpisodeWeights()) {
            slot_multi_[i]->SetObjective(w);
          }
        } else {
          slot_single_[i]->SetObjective(w);
        }
      }
      ScopedSpan collect(tracer_, "rl.collect");
      for (RolloutBuffer& b : ppo_.CollectSourcesParallel(sources_, CollectSteps(waves))) {
        samples_ += static_cast<double>(b.transitions.size());
        buffers.push_back(std::move(b));
      }
    }
    std::vector<const RolloutBuffer*> ptrs;
    for (const RolloutBuffer& b : buffers) {
      ptrs.push_back(&b);
    }
    ScopedSpan update(tracer_, "rl.update");
    ppo_.Update(ptrs);
  }

  OfflineTrainConfig config_;
  Tracer* tracer_;
  Rng rng_;
  PreferenceActorCritic model_;
  PpoTrainer ppo_;
  Rng mix_rng_;
  std::vector<std::unique_ptr<CcEnv>> single_;
  std::vector<std::unique_ptr<MultiFlowCcEnv>> multi_;
  std::vector<std::unique_ptr<TracedEnv>> traced_single_;
  std::vector<std::unique_ptr<TracedVectorEnv>> traced_multi_;
  std::vector<CcEnv*> slot_single_;
  std::vector<MultiFlowCcEnv*> slot_multi_;
  std::vector<PpoTrainer::RolloutSource> sources_;
  int trajectories_per_wave_ = 0;
  double samples_ = 0.0;
};

}  // namespace

void RunTrain(const Options& options, Result* result) {
  const std::string checkpoint = options.work_dir + "/train-checkpoint.bin";
  const int planned = MakeConfig(options.seed, checkpoint).PlannedIterations();
  const int bootstrap = kBootstrapIterations;
  std::printf("train: scenarios=%s omega=36 bootstrap=%d traversal_rounds=1 "
              "planned_iterations=%d collection=serial\n",
              kTrainScenarios, bootstrap, planned);

  // Repeat the identical training (same seed, same inputs) while time allows;
  // medians over the repeats, per-iteration times as per-index medians.
  std::vector<TrainingRun> runs;
  const int64_t start = NowNs();
  do {
    RotateCpu(static_cast<int>(runs.size()));
    runs.push_back(RunTraining(options.seed, checkpoint));
    result->attempted += planned + runs.back().result.watchdog_rollbacks;
    result->failed += CheckTraining(runs.back(), planned, result);
    result->Check(runs.back().digest == runs.front().digest,
                  "repeated training reproduces the model digest");
  } while (SecondsSince(start) + runs.back().wall_s + runs.back().setup_s <
           options.seconds);
  ReportFirstTimedCall(options, runs.front().start_ns);
  CheckCheckpoint(options.seed, checkpoint, runs.back(), result);
  std::remove(checkpoint.c_str());

  std::vector<double> setup, wall, rate1, rate2;
  std::vector<std::vector<double>> gaps(static_cast<size_t>(planned));
  for (const TrainingRun& run : runs) {
    setup.push_back(run.setup_s);
    wall.push_back(run.wall_s);
    if (static_cast<int>(run.hook_s.size()) != planned) {
      continue;  // a rollback re-ran an iteration: already counted as failed
    }
    const double boundary = run.hook_s[static_cast<size_t>(bootstrap) - 1];
    rate1.push_back(bootstrap / boundary);
    rate2.push_back((planned - bootstrap) / (run.wall_s - boundary));
    for (int k = 0; k < planned; ++k) {
      const double prev = k == 0 ? 0.0 : run.hook_s[static_cast<size_t>(k) - 1];
      gaps[static_cast<size_t>(k)].push_back(run.hook_s[static_cast<size_t>(k)] - prev);
    }
  }
  std::vector<double> stage1_us, stage2_us;
  for (int k = 0; k < planned; ++k) {
    (k < bootstrap ? stage1_us : stage2_us)
        .push_back(Median(gaps[static_cast<size_t>(k)]) * 1e6);
  }

  std::printf("train: %zu identical trainings, model digest %016llx\n", runs.size(),
              static_cast<unsigned long long>(runs.front().digest));
  Report("train_wall_s", Median(wall), "s", "median over trainings");
  Report("bootstrap iterations/s", Median(rate1), "1/s");
  Report("traversal iterations/s", Median(rate2), "1/s");
  Report("bootstrap iteration p50", Percentile(stage1_us, 0.5), "us",
         "n=" + std::to_string(stage1_us.size()) + " iterations");
  Report("bootstrap iteration p99", Percentile(stage1_us, 0.99), "us",
         "n=" + std::to_string(stage1_us.size()) + " iterations");
  Report("traversal iteration p50", Percentile(stage2_us, 0.5), "us",
         "n=" + std::to_string(stage2_us.size()) + " iterations");
  Report("traversal iteration p99", Percentile(stage2_us, 0.99), "us",
         "n=" + std::to_string(stage2_us.size()) + " iterations");
  result->Set("setup_s", Median(setup), "s");
  result->Set("job_s", Median(wall), "s");
  result->Set("stage1_per_s", Median(rate1), "1/s");
  result->Set("stage2_per_s", Median(rate2), "1/s");
  result->Set("stage1_p99_us", Percentile(stage1_us, 0.99), "us");
  result->Set("stage2_p99_us", Percentile(stage2_us, 0.99), "us");
}

void TraceTrain(const Options& options, Tracer* tracer, Result* result) {
  const std::string checkpoint = options.work_dir + "/trace-train-checkpoint.bin";
  const OfflineTrainConfig config = MakeConfig(options.seed, checkpoint);
  const int planned = config.PlannedIterations();

  // Untraced reference: the real trainer, timed only through iteration_hook.
  const TrainingRun real = RunTraining(options.seed, checkpoint);
  result->attempted += planned + real.result.watchdog_rollbacks;
  result->failed += CheckTraining(real, planned, result);
  std::remove(checkpoint.c_str());
  std::vector<double> gaps;
  for (size_t k = 0; k < real.hook_s.size(); ++k) {
    gaps.push_back(real.hook_s[k] - (k == 0 ? 0.0 : real.hook_s[k - 1]));
  }
  const double checkpoint_s = real.wall_s - real.hook_s.back();

  // The same twin untraced, for the tracing overhead; the real trainer's extra
  // wall time over it is its own bookkeeping (watchdog snapshots and health
  // checks, periodic and final checkpoints).
  int64_t start = NowNs();
  {
    TrainTwin untraced(config, nullptr);
    untraced.Train();
  }
  const double untraced_s = SecondsSince(start);

  start = NowNs();
  const size_t first_span = tracer->spans().size();
  const int32_t root = tracer->Begin("train.twin");
  int32_t setup_span = tracer->Begin("train.twin_setup");
  TrainTwin twin(config, tracer);
  tracer->End(setup_span);
  twin.Train();
  tracer->End(root);
  const double twin_s = SecondsSince(start);
  bool finite = false;
  result->Check(ModelDigest(twin.model(), &finite) == real.digest,
                "train twin reproduces the real trainer's weights bit for bit");
  const double unattributed =
      tracer->UnattributedShare(first_span, {"train.twin", "rl.iteration"});
  const double speedup = twin.PoolSpeedup(2);

  const double collect_ns = tracer->TotalNs("rl.collect");
  const double env_ns = tracer->TotalNs("envs.step") + tracer->TotalNs("envs.reset");
  tracer->Count("train.samples", twin.samples());
  tracer->Count("train.iterations", planned);
  result->Set("rl.train.update_ms", tracer->TotalNs("rl.update") * 1e-6 /
                                        std::max<int64_t>(1, tracer->Calls("rl.update")),
              "ms");
  result->Set("rl.train.update_ns_per_sample",
              tracer->TotalNs("rl.update") / std::max(1.0, twin.samples()), "ns");
  result->Set("rl.train.collect_ms",
              collect_ns * 1e-6 / std::max<int64_t>(1, tracer->Calls("rl.iteration")), "ms");
  result->Set("rl.train.act_ns_per_transition",
              (collect_ns - env_ns) / std::max(1.0, twin.samples()), "ns");
  result->Set("envs.train.step_us",
              tracer->TotalNs("envs.step") * 1e-3 /
                  std::max<int64_t>(1, tracer->Calls("envs.step")),
              "us");
  result->Set("envs.train.reset_us",
              tracer->TotalNs("envs.reset") * 1e-3 /
                  std::max<int64_t>(1, tracer->Calls("envs.reset")),
              "us");
  result->Set("core.train.iteration_ms", Median(gaps) * 1e3, "ms");
  result->Set("core.train.checkpoint_ms", checkpoint_s * 1e3, "ms");
  result->Set("core.train.bookkeeping_ms_per_iteration",
              (real.wall_s - untraced_s) * 1e3 / planned, "ms");
  result->Set("rl.train.collect_pool_speedup", speedup, "x");
  result->Set("trace.train.overhead_pct", (twin_s / untraced_s - 1.0) * 100.0, "%");
  result->Set("trace.train.unattributed_pct", unattributed * 100.0, "%");
  result->Check(unattributed <= 0.10, "named spans cover >= 90% of the traced train twin");
  std::printf("train trace: real trainer %.3f s, untraced twin %.3f s, traced twin %.3f s, "
              "%.0f samples\n",
              real.wall_s, untraced_s, twin_s, twin.samples());
}

}  // namespace perfbench
