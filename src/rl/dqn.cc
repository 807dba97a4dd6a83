#include "src/rl/dqn.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace mocc {

DqnTrainer::DqnTrainer(size_t obs_dim, const DqnConfig& config)
    : obs_dim_(obs_dim),
      config_(config),
      rng_(config.seed),
      optimizer_(config.learning_rate) {
  assert(config_.action_bins >= 2);
  std::vector<size_t> dims;
  dims.push_back(obs_dim_);
  for (size_t h : config_.hidden) {
    dims.push_back(h);
  }
  dims.push_back(static_cast<size_t>(config_.action_bins));
  q_net_ = Mlp(dims, Activation::kTanh, Activation::kIdentity, &rng_);
  target_net_ = Mlp(dims, Activation::kTanh, Activation::kIdentity, &rng_);
  target_net_.CopyWeightsFrom(q_net_);
}

double DqnTrainer::BinToAction(int k) const {
  const double frac = static_cast<double>(k) / static_cast<double>(config_.action_bins - 1);
  return config_.action_min + frac * (config_.action_max - config_.action_min);
}

double DqnTrainer::CurrentEpsilon() const {
  const double frac =
      std::min(1.0, static_cast<double>(total_steps_) /
                        std::max(1, config_.epsilon_decay_steps));
  return config_.epsilon_start + frac * (config_.epsilon_end - config_.epsilon_start);
}

int DqnTrainer::GreedyBin(Mlp* net, const std::vector<double>& obs) {
  // Single-row inference fast path: per-step action selection allocates nothing.
  net->ForwardRow(obs, &q_row_);
  int best = 0;
  for (int k = 1; k < config_.action_bins; ++k) {
    if (q_row_[static_cast<size_t>(k)] > q_row_[static_cast<size_t>(best)]) {
      best = k;
    }
  }
  return best;
}

double DqnTrainer::GreedyAction(const std::vector<double>& obs) {
  return BinToAction(GreedyBin(&q_net_, obs));
}

DqnStats DqnTrainer::TrainIteration(Env* env) {
  DqnStats stats;
  std::vector<double> obs = env->Reset();
  double reward_sum = 0.0;
  double loss_sum = 0.0;
  int loss_count = 0;
  for (int i = 0; i < config_.steps_per_iteration; ++i) {
    int bin = 0;
    if (rng_.Bernoulli(CurrentEpsilon())) {
      bin = static_cast<int>(rng_.UniformInt(0, config_.action_bins - 1));
    } else {
      bin = GreedyBin(&q_net_, obs);
    }
    const StepResult result = env->Step(BinToAction(bin));
    reward_sum += result.reward;

    Sample s;
    s.obs = obs;
    s.action_bin = bin;
    s.reward = result.reward;
    s.next_obs = result.observation;
    s.done = result.done;
    if (replay_.size() < config_.replay_capacity) {
      replay_.push_back(std::move(s));
    } else {
      replay_[replay_next_] = std::move(s);
      replay_next_ = (replay_next_ + 1) % config_.replay_capacity;
    }

    ++total_steps_;
    if (static_cast<int>(replay_.size()) >= config_.warmup_steps) {
      LearnStep();
      loss_sum += last_td_loss_;
      ++loss_count;
    }
    if (total_steps_ % config_.target_update_interval == 0) {
      target_net_.CopyWeightsFrom(q_net_);
    }
    obs = result.done ? env->Reset() : result.observation;
  }
  stats.mean_step_reward = reward_sum / config_.steps_per_iteration;
  stats.mean_td_loss = loss_count > 0 ? loss_sum / loss_count : 0.0;
  stats.epsilon = CurrentEpsilon();
  stats.total_steps = total_steps_;
  return stats;
}

void DqnTrainer::LearnStep() {
  const size_t batch = std::min<size_t>(replay_.size(), config_.batch_size);
  // Member workspaces: steady-state learning is allocation-free.
  Matrix& obs = batch_obs_;
  Matrix& next_obs = batch_next_obs_;
  Matrix& q = batch_q_;
  Matrix& next_q = batch_next_q_;
  Matrix& dq = batch_dq_;
  obs.Resize(batch, obs_dim_);
  next_obs.Resize(batch, obs_dim_);
  samples_.resize(batch);
  std::vector<const Sample*>& samples = samples_;
  for (size_t b = 0; b < batch; ++b) {
    samples[b] = &replay_[static_cast<size_t>(
        rng_.UniformInt(0, static_cast<int64_t>(replay_.size()) - 1))];
    obs.SetRow(b, samples[b]->obs);
    next_obs.SetRow(b, samples[b]->next_obs);
  }
  target_net_.ForwardInto(next_obs, &next_q);
  q_net_.ZeroGrad();
  q_net_.ForwardInto(obs, &q);
  dq.Resize(batch, static_cast<size_t>(config_.action_bins));
  dq.Fill(0.0);
  double loss = 0.0;
  const double inv_batch = 1.0 / static_cast<double>(batch);
  for (size_t b = 0; b < batch; ++b) {
    double max_next = next_q(b, 0);
    for (int k = 1; k < config_.action_bins; ++k) {
      max_next = std::max(max_next, next_q(b, static_cast<size_t>(k)));
    }
    const double target =
        samples[b]->reward + (samples[b]->done ? 0.0 : config_.gamma * max_next);
    const size_t a = static_cast<size_t>(samples[b]->action_bin);
    const double err = q(b, a) - target;
    loss += 0.5 * err * err;
    dq(b, a) = err * inv_batch;
  }
  q_net_.BackwardInto(dq, nullptr);
  auto params = q_net_.Params();
  ClipGradNorm(params, 1.0);
  optimizer_.Step(params);
  last_td_loss_ = loss * inv_batch;
}

}  // namespace mocc
