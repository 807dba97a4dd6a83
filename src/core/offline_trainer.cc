#include "src/core/offline_trainer.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <sstream>

#include "src/common/serialization.h"

namespace mocc {
namespace {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

constexpr char kCheckpointMagic[] = "MOCCCKPT";
constexpr uint32_t kCheckpointVersion = 1;

}  // namespace

int OfflineTrainConfig::PlannedIterations() const {
  const int landmarks = ObjectiveGridSize(mocc.landmark_step_divisor);
  return bootstrap_iterations +
         traversal_rounds * traversal_iterations_per_objective * landmarks;
}

OfflineTrainer::OfflineTrainer(PreferenceActorCritic* model, const OfflineTrainConfig& config)
    : model_(model),
      config_(config),
      landmarks_(GenerateWeightGrid(config.mocc.landmark_step_divisor)),
      graph_(landmarks_, config.mocc.landmark_step_divisor),
      ppo_(model,
           [&config] {
             PpoConfig ppo = config.mocc.MakePpoConfig(config.seed);
             ppo.entropy_start = config.entropy_start;
             ppo.entropy_end = config.entropy_end;
             ppo.entropy_decay_iters = std::max(1, config.PlannedIterations());
             return ppo;
           }()),
      mix_rng_(config.seed * 31 + 5) {
  assert(model_ != nullptr);
  // Slot i runs scenarios[i % S]; every slot gets its own deterministic seed so
  // collection is reproducible in any execution order. At least one slot per
  // scenario, so a scenario list longer than parallel_envs is never silently
  // truncated. With no scenarios every slot runs a default Scenario: a CcEnv on
  // the sampled Table-3 training link (the "sampled-link" catalog entry).
  const Scenario sampled_link;
  const int n_slots = std::max(std::max(1, config_.parallel_envs),
                               static_cast<int>(config_.scenarios.size()));
  for (int i = 0; i < n_slots; ++i) {
    const Scenario& scenario =
        config_.scenarios.empty()
            ? sampled_link
            : config_.scenarios[static_cast<size_t>(i) % config_.scenarios.size()];
    const uint64_t seed = config_.seed * 977 + 13 * i + 1;
    EnvSlot slot;
    if (scenario.IsMultiFlow()) {
      multi_envs_.push_back(
          scenario.MakeMultiFlowEnv(config_.mocc.MakeEnvConfig(), seed));
      slot.multi = multi_envs_.back().get();
    } else {
      envs_.push_back(scenario.MakeSingleFlowEnv(config_.mocc.MakeEnvConfig(), seed));
      slot.single = envs_.back().get();
    }
    slots_.push_back(slot);
  }
}

void OfflineTrainer::SetSlotObjective(const EnvSlot& slot, const WeightVector& w) {
  if (slot.multi != nullptr) {
    // Heterogeneous-objective scenarios own their per-agent weights: fixed mixes and
    // per-episode samples are re-applied on every Reset (the first thing rollout
    // collection does), so assigning the traversal objective here would only be
    // overridden — and would corrupt agent_objective() introspection in between.
    // Switch-only plans keep the traversal objective as the episode base and overlay
    // the scheduled change mid-episode.
    if (!slot.multi->config().objectives.OverridesEpisodeWeights()) {
      slot.multi->SetObjective(w);
    }
  } else {
    slot.single->SetObjective(w);
  }
}

PpoStats OfflineTrainer::RunScenarioIteration(const std::vector<WeightVector>& objectives) {
  assert(!objectives.empty());
  // Every objective in the batch must be collected (the serial one-env path loops
  // over all of them; dropping the tail would e.g. disable the traversal phase's
  // retention mixing). With fewer slots than objectives, collection runs in waves —
  // each wave re-assigns objectives round-robin and collects all slots in parallel —
  // and one joint update consumes every wave's buffers.
  std::vector<PpoTrainer::RolloutSource> sources;
  sources.reserve(slots_.size());
  int trajectories_per_wave = 0;
  for (const EnvSlot& slot : slots_) {
    PpoTrainer::RolloutSource source;
    if (slot.multi != nullptr) {
      source.vec = slot.multi;
      trajectories_per_wave += slot.multi->NumAgents();
    } else {
      source.env = slot.single;
      trajectories_per_wave += 1;
    }
    sources.push_back(source);
  }
  const size_t waves =
      (objectives.size() + slots_.size() - 1) / slots_.size();  // ceil
  const int steps_each =
      std::max(64, ppo_.config().rollout_steps /
                       std::max(1, static_cast<int>(waves) * trajectories_per_wave));
  std::vector<RolloutBuffer> buffers;
  for (size_t wave = 0; wave < waves; ++wave) {
    for (size_t i = 0; i < slots_.size(); ++i) {
      SetSlotObjective(slots_[i],
                       objectives[(wave * slots_.size() + i) % objectives.size()]);
    }
    std::vector<RolloutBuffer> wave_buffers =
        ppo_.CollectSourcesParallel(sources, steps_each);
    for (RolloutBuffer& buffer : wave_buffers) {
      buffers.push_back(std::move(buffer));
    }
  }
  std::vector<const RolloutBuffer*> ptrs;
  ptrs.reserve(buffers.size());
  for (const auto& b : buffers) {
    ptrs.push_back(&b);
  }
  return ppo_.Update(ptrs);
}

PpoStats OfflineTrainer::RunIteration(const std::vector<WeightVector>& objectives) {
  assert(!objectives.empty());
  if (!config_.scenarios.empty() || slots_.size() > 1) {
    return RunScenarioIteration(objectives);
  }
  // One sampled-link env: collect every objective serially, drawing from the
  // trainer's own Rng stream.
  CcEnv* env = slots_[0].single;
  const int steps_each =
      std::max(64, ppo_.config().rollout_steps / static_cast<int>(objectives.size()));
  std::vector<RolloutBuffer> buffers;
  buffers.reserve(objectives.size());
  for (const WeightVector& w : objectives) {
    env->SetObjective(w);
    buffers.push_back(ppo_.CollectRollout(env, steps_each));
  }
  std::vector<const RolloutBuffer*> ptrs;
  for (const auto& b : buffers) {
    ptrs.push_back(&b);
  }
  return ppo_.Update(ptrs);
}

std::string OfflineTrainer::SerializeTrainerBlob(const OfflineTrainResult& result) const {
  std::ostringstream out(std::ios::binary);
  BinaryWriter w(out, kCheckpointMagic, kCheckpointVersion);
  // Config fingerprint: a checkpoint only resumes the exact schedule it was taken
  // from — anything that changes the iteration sequence or env/Rng streams.
  w.WriteU64(config_.seed);
  w.WriteI64(config_.bootstrap_iterations);
  w.WriteI64(config_.traversal_iterations_per_objective);
  w.WriteI64(config_.traversal_rounds);
  w.WriteI64(config_.traversal_mix_objectives);
  w.WriteI64(config_.parallel_envs);
  w.WriteU64(landmarks_.size());
  w.WriteU64(config_.scenarios.size());
  for (const Scenario& scenario : config_.scenarios) {
    w.WriteString(scenario.name);
  }
  w.WriteI64(result.total_iterations);
  w.WriteI64(ppo_.iteration());
  w.WriteDoubleVector(result.reward_curve);
  w.WriteI64(result.watchdog_rollbacks);
  ppo_.rng().Serialize(&w);
  mix_rng_.Serialize(&w);
  model_->Serialize(&w);
  ppo_.optimizer().Serialize(&w);
  SerializeEnvStates(&w);
  return out.str();
}

bool OfflineTrainer::RestoreTrainerBlob(const std::string& blob, int* start_iteration,
                                        OfflineTrainResult* result) {
  std::istringstream in(blob, std::ios::binary);
  BinaryReader r(in, kCheckpointMagic, kCheckpointVersion);
  if (!r.ok()) {
    return false;
  }
  bool fingerprint_ok = r.ReadU64() == config_.seed;
  fingerprint_ok &= r.ReadI64() == config_.bootstrap_iterations;
  fingerprint_ok &= r.ReadI64() == config_.traversal_iterations_per_objective;
  fingerprint_ok &= r.ReadI64() == config_.traversal_rounds;
  fingerprint_ok &= r.ReadI64() == config_.traversal_mix_objectives;
  fingerprint_ok &= r.ReadI64() == config_.parallel_envs;
  fingerprint_ok &= r.ReadU64() == landmarks_.size();
  const uint64_t scenario_count = r.ReadU64();
  if (!r.ok() || !fingerprint_ok || scenario_count != config_.scenarios.size()) {
    return false;
  }
  for (const Scenario& scenario : config_.scenarios) {
    if (r.ReadString() != scenario.name) {
      return false;
    }
  }
  const int64_t completed = r.ReadI64();
  const int64_t ppo_iteration = r.ReadI64();
  std::vector<double> curve = r.ReadDoubleVector();
  const int64_t rollbacks = r.ReadI64();
  if (!r.ok() || completed < 0 ||
      curve.size() != static_cast<size_t>(completed)) {
    return false;
  }
  if (!ppo_.mutable_rng()->Deserialize(&r) || !mix_rng_.Deserialize(&r) ||
      !model_->Deserialize(&r) || !ppo_.mutable_optimizer()->Deserialize(&r) ||
      !DeserializeEnvStates(&r) || !r.ok()) {
    return false;
  }
  ppo_.set_iteration(static_cast<int>(ppo_iteration));
  *start_iteration = static_cast<int>(completed);
  result->reward_curve = std::move(curve);
  result->total_iterations = static_cast<int>(completed);
  result->watchdog_rollbacks = static_cast<int>(rollbacks);
  return true;
}

bool OfflineTrainer::WriteCheckpoint(const OfflineTrainResult& result) const {
  return AtomicWriteFile(config_.checkpoint_path, SerializeTrainerBlob(result));
}

void OfflineTrainer::SerializeEnvStates(BinaryWriter* w) const {
  w->WriteU64(slots_.size());
  for (const EnvSlot& slot : slots_) {
    if (slot.single != nullptr) {
      slot.single->SerializeState(w);
    } else {
      slot.multi->SerializeState(w);
    }
  }
}

bool OfflineTrainer::DeserializeEnvStates(BinaryReader* r) {
  if (r->ReadU64() != slots_.size()) {
    return false;
  }
  for (EnvSlot& slot : slots_) {
    const bool ok = slot.single != nullptr ? slot.single->DeserializeState(r)
                                           : slot.multi->DeserializeState(r);
    if (!ok) {
      return false;
    }
  }
  return r->ok();
}

bool OfflineTrainer::IterationHealthy(const PpoStats& stats) {
  if (!std::isfinite(stats.mean_step_reward) || !std::isfinite(stats.policy_loss) ||
      !std::isfinite(stats.value_loss) || !std::isfinite(stats.entropy) ||
      !std::isfinite(stats.approx_kl)) {
    return false;
  }
  if (std::abs(stats.approx_kl) > config_.watchdog_kl_limit) {
    return false;
  }
  for (const ParamRef& param : model_->Params()) {
    for (double v : param.value->storage()) {
      if (!std::isfinite(v)) {
        return false;
      }
    }
  }
  return true;
}

bool OfflineTrainer::ExecuteIteration(const std::vector<WeightVector>& objectives,
                                      OfflineTrainResult* result) {
  // Snapshot taken after the caller's objective-mix draws: a rollback rewinds the
  // attempt (model, optimizer, every Rng stream, env state) but not the batch.
  const std::string snapshot = SerializeTrainerBlob(*result);
  for (int attempt = 0;; ++attempt) {
    PpoStats stats = RunIteration(objectives);
    if (config_.iteration_hook) {
      config_.iteration_hook(result->total_iterations, &stats);
    }
    if (IterationHealthy(stats)) {
      result->reward_curve.push_back(stats.mean_step_reward);
      ++result->total_iterations;
      return true;
    }
    int ignored = 0;
    OfflineTrainResult scratch;
    const bool restored = RestoreTrainerBlob(snapshot, &ignored, &scratch);
    assert(restored);
    (void)restored;
    ++result->watchdog_rollbacks;
    if (attempt + 1 >= std::max(1, config_.max_watchdog_retries)) {
      result->watchdog_failed = true;
      return false;
    }
    // Retry at a compounding backed-off learning rate. The restored Rng streams
    // replay the same rollouts, so the rate is the only knob that changes.
    double lr = ppo_.optimizer().learning_rate();
    for (int a = 0; a <= attempt; ++a) {
      lr *= config_.watchdog_lr_backoff;
    }
    ppo_.set_learning_rate(lr);
  }
}

OfflineTrainResult OfflineTrainer::TrainTwoPhase() {
  OfflineTrainResult result;
  const double t0 = NowSeconds();

  // Resume: restore the checkpoint and replay the schedule's bookkeeping (loop
  // structure, visited lists) without re-running the first start_iteration
  // iterations — the restored Rng streams have already consumed their draws, so
  // the continuation is bit-identical with an uninterrupted run.
  int start_iteration = 0;
  if (config_.resume && !config_.checkpoint_path.empty()) {
    std::string blob;
    if (ReadFile(config_.checkpoint_path, &blob)) {
      if (!RestoreTrainerBlob(blob, &start_iteration, &result)) {
        result.resume_failed = true;
        result.wall_seconds = NowSeconds() - t0;
        return result;
      }
    }
    // Missing checkpoint file: start fresh.
  }
  result.start_iteration = start_iteration;
  // Replaying the schedule re-executes phase-boundary learning-rate changes; put
  // back the checkpointed rate (which may include a watchdog backoff) right
  // before the first live iteration.
  bool pending_lr_restore = start_iteration > 0;
  const double restored_lr = ppo_.optimizer().learning_rate();

  int k = 0;  // global iteration index across both phases
  bool stopped = false;
  auto run_one = [&](const std::vector<WeightVector>& batch) {
    if (pending_lr_restore) {
      ppo_.set_learning_rate(restored_lr);
      pending_lr_restore = false;
    }
    if (!ExecuteIteration(batch, &result)) {
      // Watchdog retries exhausted: state is the last healthy snapshot; persist
      // it so nothing is lost, then stop.
      stopped = true;
      if (!config_.checkpoint_path.empty()) {
        WriteCheckpoint(result);
      }
      return;
    }
    ++k;
    if (config_.interrupt_flag != nullptr && *config_.interrupt_flag != 0) {
      result.interrupted = true;
      stopped = true;
    } else if (config_.stop_after_iterations >= 0 &&
               k >= config_.stop_after_iterations) {
      stopped = true;
    }
    const bool periodic = config_.checkpoint_interval > 0 &&
                          k % config_.checkpoint_interval == 0;
    if (!config_.checkpoint_path.empty() && (periodic || stopped)) {
      WriteCheckpoint(result);
    }
  };

  // Phase 1 — bootstrapping: the pivot objectives are trained jointly to convergence,
  // building the base correlation between requirements and policies.
  for (int i = 0; i < config_.bootstrap_iterations && !stopped; ++i) {
    if (k < start_iteration) {
      ++k;
      continue;
    }
    run_one(config_.bootstrap_objectives);
  }

  // Phase 2 — fast traversing: visit the landmarks a few steps each in the Algorithm-1
  // neighborhood order; each visit transfers from neighboring (already trained)
  // objectives and mixes in previously visited ones to retain them. The phase refines
  // the base model, so it runs at a reduced learning rate.
  if (!stopped) {
    ppo_.set_learning_rate(config_.mocc.learning_rate * config_.traversal_lr_factor);
  }
  result.traversal_order = graph_.SortForTraversal(config_.bootstrap_objectives);
  std::vector<WeightVector> visited = config_.bootstrap_objectives;
  for (int round = 0; round < config_.traversal_rounds && !stopped; ++round) {
    for (int idx : result.traversal_order) {
      const WeightVector& current = landmarks_[static_cast<size_t>(idx)];
      for (int i = 0; i < config_.traversal_iterations_per_objective; ++i) {
        if (k < start_iteration) {
          // Replayed iteration: the restored mix_rng_ already consumed its
          // objective-mix draws, so skip without redrawing.
          ++k;
          continue;
        }
        std::vector<WeightVector> batch = {current};
        for (int m = 0; m < config_.traversal_mix_objectives && !visited.empty(); ++m) {
          batch.push_back(visited[static_cast<size_t>(
              mix_rng_.UniformInt(0, static_cast<int64_t>(visited.size()) - 1))]);
        }
        run_one(batch);
        if (stopped) {
          break;
        }
      }
      visited.push_back(current);
      if (stopped) {
        break;
      }
    }
  }

  if (!stopped) {
    ppo_.set_learning_rate(config_.mocc.learning_rate);
  }
  result.wall_seconds = NowSeconds() - t0;
  return result;
}

OfflineTrainResult OfflineTrainer::TrainIndividually() {
  OfflineTrainResult result;
  const double t0 = NowSeconds();
  // No transfer: every landmark objective receives the full bootstrap budget, mimicking
  // one independent single-objective RL per objective (§6.5, "Individual Training").
  for (const WeightVector& objective : landmarks_) {
    for (int i = 0; i < config_.bootstrap_iterations; ++i) {
      const PpoStats stats = RunIteration({objective});
      result.reward_curve.push_back(stats.mean_step_reward);
      ++result.total_iterations;
    }
  }
  result.wall_seconds = NowSeconds() - t0;
  return result;
}

}  // namespace mocc
