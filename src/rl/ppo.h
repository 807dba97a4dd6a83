// Proximal Policy Optimization (Schulman et al. 2017) — the policy-optimization
// algorithm MOCC trains with (§4.2): clipped surrogate objective (Eq. 3), advantage from
// the critic (Eq. 4), and entropy regularization with a decaying coefficient (Eq. 5,
// β: 1 → 0.1 over 1000 iterations per §5). The trainer exposes rollout collection and
// updates separately so the online adapter can optimize the Eq. 6 average over the
// current and a replayed objective.
#ifndef MOCC_SRC_RL_PPO_H_
#define MOCC_SRC_RL_PPO_H_

#include <memory>
#include <vector>

#include "src/common/rng.h"
#include "src/envs/env.h"
#include "src/nn/optimizer.h"
#include "src/rl/actor_critic.h"
#include "src/rl/rollout.h"

namespace mocc {

struct PpoConfig {
  double gamma = 0.99;          // discount factor (Table 2)
  // High lambda keeps long-horizon credit: the payoff of climbing toward capacity
  // accrues over hundreds of monitor intervals, while overshoot penalties are
  // immediate — a short advantage horizon would systematically favour under-sending.
  double gae_lambda = 0.99;
  double clip_epsilon = 0.2;    // ε (§5)
  double learning_rate = 1e-3;  // Adam (Table 2)
  int rollout_steps = 1024;
  int epochs = 4;
  int minibatch_size = 256;
  double value_coef = 0.5;
  // Rewards are scaled by this factor for GAE/critic targets (policy gradients are
  // invariant thanks to advantage normalization); ~(1-gamma) keeps value targets O(1).
  double reward_scale = 0.01;
  // Entropy coefficient β decays linearly from start to end over decay_iters (§5).
  double entropy_start = 1.0;
  double entropy_end = 0.1;
  int entropy_decay_iters = 1000;
  double max_grad_norm = 1.0;
  double log_std_min = -2.5;
  double log_std_max = -0.3;
  uint64_t seed = 1;
};

// Aggregate statistics of one training iteration.
struct PpoStats {
  double mean_step_reward = 0.0;
  double mean_episode_return = 0.0;
  double policy_loss = 0.0;
  double value_loss = 0.0;
  double entropy = 0.0;
  // Mean of (old_log_prob - new_log_prob) over the update — the standard PPO KL
  // estimate. The training watchdog treats a blow-up here as divergence.
  double approx_kl = 0.0;
  int iteration = 0;
};

class PpoTrainer {
 public:
  // `model` must outlive the trainer.
  PpoTrainer(ActorCritic* model, const PpoConfig& config);

  // Collects `steps` transitions from `env` with the current stochastic policy,
  // resetting the environment at the start and on episode end. GAE targets are filled.
  RolloutBuffer CollectRollout(Env* env, int steps);

  // Collects per-agent rollouts from one synchronized multi-agent environment: every
  // env step, the current policy acts once per ACTIVE agent (agent-order draws from
  // one Rng stream; agents whose flow has not arrived in a staggered schedule are
  // skipped entirely) and each agent's transition lands in its own buffer, so GAE
  // stays per-trajectory. Returns NumAgents() buffers of up to `env_steps`
  // transitions each.
  std::vector<RolloutBuffer> CollectVectorRollout(VectorEnv* env, int env_steps);

  // One unit of mixed rollout collection: exactly one of the two pointers is set.
  struct RolloutSource {
    Env* env = nullptr;
    VectorEnv* vec = nullptr;
  };

  // Collects one rollout per source concurrently on the shared ThreadPool, each
  // worker acting on a cloned model with its own Rng stream (the paper's
  // Ray/RLlib-style parallel training; scenario training mixes single-flow and
  // shared-bottleneck environments in one iteration). Clones and Rng streams are
  // derived on the calling thread in source order, so the result is bit-identical
  // to serial collection over the same sources and independent of thread
  // count/scheduling (the determinism contract of src/common/thread_pool.h).
  // Returns the buffers flattened in source order — one per Env source,
  // NumAgents() per VectorEnv source.
  std::vector<RolloutBuffer> CollectSourcesParallel(
      const std::vector<RolloutSource>& sources, int steps_each);

  // When false, CollectSourcesParallel runs its per-source tasks sequentially on the
  // calling thread instead of the pool (same results; used to verify determinism).
  void set_parallel_collection(bool enabled) { parallel_collection_ = enabled; }
  bool parallel_collection() const { return parallel_collection_; }

  // Runs the clipped-surrogate update over the union of `buffers`. Passing two buffers
  // of equal size implements the online-adaptation objective of Eq. (6).
  PpoStats Update(const std::vector<const RolloutBuffer*>& buffers);

  // Convenience: CollectRollout + Update.
  PpoStats TrainIteration(Env* env);

  // Current entropy coefficient (decayed by iteration count).
  double EntropyCoef() const;

  // Adjusts the optimizer learning rate mid-training (used by the two-phase trainer).
  void set_learning_rate(double lr);

  int iteration() const { return iteration_; }
  void set_iteration(int it) { iteration_ = it; }
  ActorCritic* model() { return model_; }
  const PpoConfig& config() const { return config_; }

  // Checkpointing hooks: the trainer's Rng stream (drives collection seeding and
  // minibatch shuffling) and Adam state must survive a crash for resumed training
  // to stay bit-identical with an uninterrupted run.
  Rng* mutable_rng() { return &rng_; }
  const Rng& rng() const { return rng_; }
  AdamOptimizer* mutable_optimizer() { return &optimizer_; }
  const AdamOptimizer& optimizer() const { return optimizer_; }

 private:
  RolloutBuffer CollectWith(ActorCritic* model, Env* env, int steps, Rng* rng);
  std::vector<RolloutBuffer> CollectVectorWith(ActorCritic* model, VectorEnv* env,
                                               int env_steps, Rng* rng);

  ActorCritic* model_;
  PpoConfig config_;
  AdamOptimizer optimizer_;
  Rng rng_;
  int iteration_ = 0;
  bool parallel_collection_ = true;
  double last_mean_step_reward_ = 0.0;
  double last_mean_episode_return_ = 0.0;
  // Update() minibatch workspaces (capacity reused across minibatches/iterations).
  Matrix batch_obs_;
  Matrix batch_mean_;
  Matrix batch_value_;
  Matrix batch_dmean_;
  Matrix batch_dvalue_;
};

}  // namespace mocc

#endif  // MOCC_SRC_RL_PPO_H_
