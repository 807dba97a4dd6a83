// Trajectory storage and Generalized Advantage Estimation for the PPO trainer.
#ifndef MOCC_SRC_RL_ROLLOUT_H_
#define MOCC_SRC_RL_ROLLOUT_H_

#include <cstddef>
#include <vector>

namespace mocc {

// One collected transition.
struct Transition {
  std::vector<double> observation;
  double action = 0.0;
  double log_prob = 0.0;
  double reward = 0.0;      // scaled reward used for GAE/critic targets
  double raw_reward = 0.0;  // environment reward, for reporting
  double value = 0.0;
  bool done = false;
};

// A batch of transitions plus the derived advantage/return targets.
struct RolloutBuffer {
  std::vector<Transition> transitions;
  std::vector<double> advantages;
  std::vector<double> returns;

  // Preallocates storage for `steps` transitions and their GAE targets so
  // collection and ComputeGae never reallocate mid-rollout.
  void Reserve(size_t steps);
  size_t size() const { return transitions.size(); }
};

// Computes GAE(γ, λ) advantages and the corresponding value targets
// (returns[i] = advantages[i] + value[i]). `bootstrap_value` is V(s_T) of the state
// following the last transition (0 if that transition ended an episode).
void ComputeGae(RolloutBuffer* buffer, double gamma, double lam, double bootstrap_value);

// Normalizes advantages to zero mean / unit variance (no-op for tiny buffers).
void NormalizeAdvantages(RolloutBuffer* buffer);

// Gaussian log-density log N(x; mean, std²).
double GaussianLogProb(double x, double mean, double std);

// Differential entropy of N(·; mean, std²) = log(std) + 0.5*log(2πe).
double GaussianEntropy(double std);

}  // namespace mocc

#endif  // MOCC_SRC_RL_ROLLOUT_H_
