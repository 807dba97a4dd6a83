#include "src/rl/guarded_policy.h"

#include <cmath>

namespace mocc {

GuardedPolicy::GuardedPolicy(const Options& options)
    : options_(options),
      min_proposal_bps_(options.min_rate_bps / options.max_step_rate_factor),
      max_proposal_bps_(options.max_rate_bps * options.max_step_rate_factor) {}

bool GuardedPolicy::BeginInterval() {
  switch (state_) {
    case State::kClosed:
      return true;
    case State::kOpen:
      if (++open_intervals_elapsed_ >= options_.open_intervals) {
        state_ = State::kHalfOpen;
        valid_probes_ = 0;
        return true;
      }
      ++fallback_interval_count_;
      return false;
    case State::kHalfOpen:
      return true;
  }
  return true;  // unreachable
}

void GuardedPolicy::Trip() {
  ++trip_count_;
  ++fallback_interval_count_;
  state_ = State::kOpen;
  open_intervals_elapsed_ = 0;
  valid_probes_ = 0;
}

bool GuardedPolicy::ValidateDecision(double action, double proposed_rate_bps,
                                     double previous_rate_bps) {
  // NaN actions need an explicit check: Eq. (1) maps them to "rate unchanged"
  // (every NaN comparison is false), so the rate checks alone would pass.
  if (!std::isfinite(action) || !std::isfinite(proposed_rate_bps) ||
      proposed_rate_bps <= 0.0) {
    Trip();
    return false;
  }
  const double f = options_.max_step_rate_factor;
  if (previous_rate_bps > 0.0 && (proposed_rate_bps > previous_rate_bps * f ||
                                  proposed_rate_bps < previous_rate_bps / f)) {
    Trip();
    return false;
  }
  if (proposed_rate_bps > max_proposal_bps_ || proposed_rate_bps < min_proposal_bps_) {
    Trip();
    return false;
  }
  if (state_ == State::kHalfOpen &&
      ++valid_probes_ >= options_.close_after_valid_probes) {
    state_ = State::kClosed;
    ++recovery_count_;
  }
  return true;
}

}  // namespace mocc
