#include "src/rl/rollout.h"

#include <cmath>

namespace mocc {
namespace {

// M_PI is a POSIX extension, not standard C++.
constexpr double kPi = 3.14159265358979323846;

}  // namespace

void RolloutBuffer::Reserve(size_t steps) {
  transitions.reserve(steps);
  advantages.reserve(steps);
  returns.reserve(steps);
}

void ComputeGae(RolloutBuffer* buffer, double gamma, double lam, double bootstrap_value) {
  const size_t n = buffer->transitions.size();
  buffer->advantages.assign(n, 0.0);
  buffer->returns.assign(n, 0.0);
  double gae = 0.0;
  double next_value = bootstrap_value;
  for (size_t i = n; i-- > 0;) {
    const Transition& t = buffer->transitions[i];
    const double not_done = t.done ? 0.0 : 1.0;
    const double delta = t.reward + gamma * next_value * not_done - t.value;
    gae = delta + gamma * lam * not_done * gae;
    buffer->advantages[i] = gae;
    buffer->returns[i] = gae + t.value;
    next_value = t.value;
  }
}

void NormalizeAdvantages(RolloutBuffer* buffer) {
  const size_t n = buffer->advantages.size();
  if (n < 2) {
    return;
  }
  double mean = 0.0;
  for (double a : buffer->advantages) {
    mean += a;
  }
  mean /= static_cast<double>(n);
  double var = 0.0;
  for (double a : buffer->advantages) {
    var += (a - mean) * (a - mean);
  }
  var /= static_cast<double>(n);
  const double std = std::sqrt(var) + 1e-8;
  for (double& a : buffer->advantages) {
    a = (a - mean) / std;
  }
}

double GaussianLogProb(double x, double mean, double std) {
  const double z = (x - mean) / std;
  return -0.5 * z * z - std::log(std) - 0.5 * std::log(2.0 * kPi);
}

double GaussianEntropy(double std) {
  return std::log(std) + 0.5 * std::log(2.0 * kPi * std::exp(1.0));
}

}  // namespace mocc
