#include "src/rl/ppo.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>

#include "src/common/thread_pool.h"

namespace mocc {

PpoTrainer::PpoTrainer(ActorCritic* model, const PpoConfig& config)
    : model_(model), config_(config), optimizer_(config.learning_rate), rng_(config.seed) {
  assert(model_ != nullptr);
}

void PpoTrainer::set_learning_rate(double lr) { optimizer_.set_learning_rate(lr); }

double PpoTrainer::EntropyCoef() const {
  const double frac = std::min(
      1.0, static_cast<double>(iteration_) / std::max(1, config_.entropy_decay_iters));
  return config_.entropy_start + frac * (config_.entropy_end - config_.entropy_start);
}

RolloutBuffer PpoTrainer::CollectWith(ActorCritic* model, Env* env, int steps, Rng* rng) {
  RolloutBuffer buffer;
  buffer.Reserve(static_cast<size_t>(steps));
  std::vector<double> obs = env->Reset();
  const double std = std::exp(model->log_std());
  double last_value = 0.0;
  bool last_done = true;
  for (int i = 0; i < steps; ++i) {
    // Single-row inference fast path: no batch matrices, no allocation.
    double mean = 0.0;
    double v = 0.0;
    model->ForwardRow(obs, &mean, &v);
    const double action = rng->Normal(mean, std);
    const StepResult result = env->Step(action);

    Transition t;
    t.observation = std::move(obs);
    t.action = action;
    t.log_prob = GaussianLogProb(action, mean, std);
    // GAE/critic targets use scaled rewards (see PpoConfig::reward_scale); the raw
    // reward is kept for reporting.
    t.reward = result.reward * config_.reward_scale;
    t.raw_reward = result.reward;
    t.value = v;
    t.done = result.done;
    buffer.transitions.push_back(std::move(t));

    last_done = result.done;
    obs = result.done ? env->Reset() : result.observation;
  }
  if (!last_done) {
    // Bootstrap the value of the truncated trajectory's final state.
    double mean = 0.0;
    double v = 0.0;
    model->ForwardRow(obs, &mean, &v);
    last_value = v;
  }
  ComputeGae(&buffer, config_.gamma, config_.gae_lambda, last_value);
  return buffer;
}

RolloutBuffer PpoTrainer::CollectRollout(Env* env, int steps) {
  return CollectWith(model_, env, steps, &rng_);
}

std::vector<RolloutBuffer> PpoTrainer::CollectVectorWith(ActorCritic* model,
                                                         VectorEnv* env, int env_steps,
                                                         Rng* rng) {
  const int n = env->NumAgents();
  std::vector<RolloutBuffer> buffers(static_cast<size_t>(n));
  for (RolloutBuffer& buffer : buffers) {
    buffer.Reserve(static_cast<size_t>(env_steps));
  }
  std::vector<std::vector<double>> obs = env->Reset();
  const double std = std::exp(model->log_std());
  std::vector<double> actions(static_cast<size_t>(n), 0.0);
  std::vector<double> means(static_cast<size_t>(n), 0.0);
  std::vector<double> values(static_cast<size_t>(n), 0.0);
  std::vector<bool> active(static_cast<size_t>(n), false);
  bool last_done = true;
  for (int step = 0; step < env_steps; ++step) {
    // Agent order is fixed and the arrival schedule is deterministic, so the shared
    // Rng stream draws deterministically. Agents whose flow has not arrived yet take
    // no action and record no transition — a staggered schedule must not feed
    // fictitious data into the update.
    for (int i = 0; i < n; ++i) {
      const size_t a = static_cast<size_t>(i);
      active[a] = env->AgentActive(i);
      if (!active[a]) {
        actions[a] = 0.0;
        continue;
      }
      model->ForwardRow(obs[a], &means[a], &values[a]);
      actions[a] = rng->Normal(means[a], std);
    }
    VectorStepResult result = env->Step(actions);

    for (int i = 0; i < n; ++i) {
      const size_t a = static_cast<size_t>(i);
      if (!active[a]) {
        continue;
      }
      Transition t;
      t.observation = std::move(obs[a]);
      t.action = actions[a];
      t.log_prob = GaussianLogProb(actions[a], means[a], std);
      t.reward = result.rewards[a] * config_.reward_scale;
      t.raw_reward = result.rewards[a];
      t.value = values[a];
      t.done = result.done;
      buffers[a].transitions.push_back(std::move(t));
    }
    last_done = result.done;
    obs = result.done ? env->Reset() : std::move(result.observations);
  }
  for (int i = 0; i < n; ++i) {
    RolloutBuffer& buffer = buffers[static_cast<size_t>(i)];
    double last_value = 0.0;
    if (!last_done && !buffer.transitions.empty() && !buffer.transitions.back().done) {
      // Bootstrap the value of this agent's truncated trajectory's final state.
      double mean = 0.0;
      model->ForwardRow(obs[static_cast<size_t>(i)], &mean, &last_value);
    }
    ComputeGae(&buffer, config_.gamma, config_.gae_lambda, last_value);
  }
  return buffers;
}

std::vector<RolloutBuffer> PpoTrainer::CollectVectorRollout(VectorEnv* env,
                                                            int env_steps) {
  return CollectVectorWith(model_, env, env_steps, &rng_);
}

std::vector<RolloutBuffer> PpoTrainer::CollectSourcesParallel(
    const std::vector<RolloutSource>& sources, int steps_each) {
  std::vector<std::vector<RolloutBuffer>> per_source(sources.size());
  std::vector<std::unique_ptr<ActorCritic>> clones;
  std::vector<Rng> rngs;
  clones.reserve(sources.size());
  rngs.reserve(sources.size());
  // Clones and Rng streams are derived here, on the calling thread, in source
  // order: this is what makes the collected data independent of worker
  // scheduling (see the determinism contract in src/common/thread_pool.h).
  for (size_t i = 0; i < sources.size(); ++i) {
    clones.push_back(model_->Clone());
    rngs.emplace_back(rng_.NextU64());
  }
  auto collect_one = [&](int i) {
    const size_t s = static_cast<size_t>(i);
    const RolloutSource& source = sources[s];
    if (source.vec != nullptr) {
      per_source[s] = CollectVectorWith(clones[s].get(), source.vec, steps_each, &rngs[s]);
    } else {
      per_source[s].push_back(CollectWith(clones[s].get(), source.env, steps_each, &rngs[s]));
    }
  };
  if (parallel_collection_) {
    ThreadPool::Shared().ParallelFor(static_cast<int>(sources.size()), collect_one);
  } else {
    for (int i = 0; i < static_cast<int>(sources.size()); ++i) {
      collect_one(i);
    }
  }
  std::vector<RolloutBuffer> buffers;
  for (std::vector<RolloutBuffer>& group : per_source) {
    for (RolloutBuffer& buffer : group) {
      buffers.push_back(std::move(buffer));
    }
  }
  return buffers;
}

PpoStats PpoTrainer::Update(const std::vector<const RolloutBuffer*>& buffers) {
  // Concatenate the buffers and normalize advantages jointly: objectives whose rewards
  // are flat within their rollout then contribute (correctly) little policy gradient,
  // while Eq. (6)'s equal weighting is preserved through equal sample counts.
  std::vector<Transition> all;
  std::vector<double> advantages;
  std::vector<double> returns;
  double reward_sum = 0.0;
  double episode_return_sum = 0.0;
  int episode_count = 0;
  for (const RolloutBuffer* buffer : buffers) {
    double episode_return = 0.0;
    for (size_t i = 0; i < buffer->transitions.size(); ++i) {
      Transition t = buffer->transitions[i];
      reward_sum += t.raw_reward;
      episode_return += t.raw_reward;
      if (t.done) {
        episode_return_sum += episode_return;
        episode_return = 0.0;
        ++episode_count;
      }
      all.push_back(std::move(t));
      advantages.push_back(buffer->advantages[i]);
      returns.push_back(buffer->returns[i]);
    }
  }
  // Joint advantage normalization.
  if (advantages.size() > 1) {
    double mean = 0.0;
    for (double a : advantages) {
      mean += a;
    }
    mean /= static_cast<double>(advantages.size());
    double var = 0.0;
    for (double a : advantages) {
      var += (a - mean) * (a - mean);
    }
    var /= static_cast<double>(advantages.size());
    const double denom = std::sqrt(var) + 1e-8;
    for (double& a : advantages) {
      a = (a - mean) / denom;
    }
  }
  const size_t n = all.size();
  PpoStats stats;
  stats.iteration = iteration_;
  if (n == 0) {
    return stats;
  }
  stats.mean_step_reward = reward_sum / static_cast<double>(n);
  stats.mean_episode_return =
      episode_count > 0 ? episode_return_sum / episode_count : reward_sum;
  last_mean_step_reward_ = stats.mean_step_reward;
  last_mean_episode_return_ = stats.mean_episode_return;

  const double entropy_coef = EntropyCoef();
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);

  double total_policy_loss = 0.0;
  double total_value_loss = 0.0;
  double total_approx_kl = 0.0;
  int update_count = 0;

  const size_t obs_dim = all[0].observation.size();
  // Minibatch matrices are member workspaces: steady-state updates are
  // allocation-free (Resize reuses capacity).
  Matrix& obs = batch_obs_;
  Matrix& mean = batch_mean_;
  Matrix& value = batch_value_;
  Matrix& dmean = batch_dmean_;
  Matrix& dvalue = batch_dvalue_;
  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    rng_.Shuffle(&order);
    for (size_t begin = 0; begin < n; begin += static_cast<size_t>(config_.minibatch_size)) {
      const size_t end = std::min(n, begin + static_cast<size_t>(config_.minibatch_size));
      const size_t batch = end - begin;
      obs.Resize(batch, obs_dim);
      for (size_t b = 0; b < batch; ++b) {
        obs.SetRow(b, all[order[begin + b]].observation);
      }
      model_->ZeroGrad();
      model_->Forward(obs, &mean, &value);
      const double std = std::exp(model_->log_std());

      dmean.Resize(batch, 1);
      dvalue.Resize(batch, 1);
      double log_std_grad = 0.0;
      double policy_loss = 0.0;
      double value_loss = 0.0;
      double approx_kl = 0.0;
      const double inv_batch = 1.0 / static_cast<double>(batch);
      for (size_t b = 0; b < batch; ++b) {
        const size_t idx = order[begin + b];
        const Transition& t = all[idx];
        const double adv = advantages[idx];
        const double ret = returns[idx];
        const double mu = mean(b, 0);
        const double log_prob = GaussianLogProb(t.action, mu, std);
        approx_kl += t.log_prob - log_prob;
        const double ratio = std::exp(std::clamp(log_prob - t.log_prob, -20.0, 20.0));
        const double clipped =
            std::clamp(ratio, 1.0 - config_.clip_epsilon, 1.0 + config_.clip_epsilon);
        const double surr1 = ratio * adv;
        const double surr2 = clipped * adv;
        policy_loss += -std::min(surr1, surr2);
        // Gradient of -min(surr1, surr2) wrt (mu, log_std): nonzero only when the
        // unclipped branch is active.
        if (surr1 <= surr2) {
          const double z = (t.action - mu) / std;
          const double dlogp_dmu = z / std;
          const double dlogp_dlogstd = z * z - 1.0;
          dmean(b, 0) = -adv * ratio * dlogp_dmu * inv_batch;
          log_std_grad += -adv * ratio * dlogp_dlogstd * inv_batch;
        } else {
          dmean(b, 0) = 0.0;
        }
        // Entropy bonus: H = log_std + const, so dH/dlog_std = 1.
        log_std_grad += -entropy_coef * inv_batch;
        // Value loss: 0.5 * (V - R)^2.
        const double verr = value(b, 0) - ret;
        value_loss += 0.5 * verr * verr;
        dvalue(b, 0) = config_.value_coef * verr * inv_batch;
      }
      model_->Backward(dmean, dvalue);
      model_->AccumulateLogStdGrad(log_std_grad);
      auto params = model_->Params();
      ClipGradNorm(params, config_.max_grad_norm);
      optimizer_.Step(params);
      model_->set_log_std(
          std::clamp(model_->log_std(), config_.log_std_min, config_.log_std_max));

      total_policy_loss += policy_loss * inv_batch;
      total_value_loss += value_loss * inv_batch;
      total_approx_kl += approx_kl * inv_batch;
      ++update_count;
    }
  }
  if (update_count > 0) {
    stats.policy_loss = total_policy_loss / update_count;
    stats.value_loss = total_value_loss / update_count;
    stats.approx_kl = total_approx_kl / update_count;
  }
  stats.entropy = GaussianEntropy(std::exp(model_->log_std()));
  ++iteration_;
  return stats;
}

PpoStats PpoTrainer::TrainIteration(Env* env) {
  RolloutBuffer buffer = CollectRollout(env, config_.rollout_steps);
  return Update({&buffer});
}

}  // namespace mocc
