// Deployment guardrail for learned rate controllers: a per-decision validator behind a
// circuit breaker. Every monitor interval the controller proposes a rate update from
// policy inference; the guard accepts it only when the action and resulting rate are
// finite, the rate lies within (a tolerance band around) the controller's rate bounds,
// and the per-MI multiplicative change is bounded. A violation trips the breaker: the
// flow degrades to a fallback scheme (CUBIC from the baseline shelf, owned by the
// controller) and, after a hold-off, the breaker half-opens and probes the policy again
// — a configurable number of consecutive sane probes closes it. This is the serving-path
// counterpart of the training watchdog: a model emitting garbage (NaN weights, an
// out-of-distribution input, a corrupted checkpoint) costs throughput, not the
// connection. All state is deterministic — no clocks, no randomness — so guarded
// simulations stay bit-reproducible.
#ifndef MOCC_SRC_RL_GUARDED_POLICY_H_
#define MOCC_SRC_RL_GUARDED_POLICY_H_

#include <cstdint>

namespace mocc {

class GuardedPolicy {
 public:
  struct Options {
    // Bounds the per-MI multiplicative rate change in either direction: a proposal
    // outside [previous / f, previous * f] is a violation. With the Eq. (1) update
    // and α = 0.025 this corresponds to |action| ≲ 40 — far beyond any trained
    // policy's mean, but a hard stop for runaway outputs.
    double max_step_rate_factor = 2.0;
    // The controller's deployment rate bounds; proposals outside the bounds widened
    // by max_step_rate_factor are violations (clamp-hugging behaviour stays legal).
    double min_rate_bps = 0.1e6;
    double max_rate_bps = 400e6;
    // Monitor intervals the breaker stays open (fallback driving, inference skipped)
    // before half-opening to probe the policy again.
    int open_intervals = 8;
    // Consecutive valid half-open probes required to close the breaker.
    int close_after_valid_probes = 2;
  };

  enum class State {
    kClosed,    // policy drives the flow
    kOpen,      // fallback drives the flow; inference skipped
    kHalfOpen,  // policy probed; its decisions applied while they stay sane
  };

  explicit GuardedPolicy(const Options& options);

  // Called once per monitor interval before inference. Advances the open → half-open
  // hold-off and returns true when the policy should be evaluated this interval
  // (closed, or a half-open probe); false means the fallback owns the interval and
  // inference is skipped entirely.
  bool BeginInterval();

  // Validates one policy decision: `action` is the raw policy output, `proposed_rate`
  // the rate the Eq. (1) update would yield from `previous_rate`. Returns true when
  // the decision is accepted (a half-open probe counts toward closing); false trips
  // or re-opens the breaker and the caller must fall back for this interval.
  bool ValidateDecision(double action, double proposed_rate_bps,
                        double previous_rate_bps);

  State state() const { return state_; }
  // Transitions into the open state (closed → open trips plus half-open → open
  // reopenings) — the violation count surfaced in simulate/eval reports.
  int64_t trip_count() const { return trip_count_; }
  // Monitor intervals driven by the fallback (open, or a rejected decision).
  int64_t fallback_interval_count() const { return fallback_interval_count_; }
  // Times the breaker fully closed again after a trip.
  int64_t recovery_count() const { return recovery_count_; }

 private:
  void Trip();

  Options options_;
  // The absolute proposal bounds, the rate bounds widened by
  // max_step_rate_factor (computed once, not per decision).
  double min_proposal_bps_;
  double max_proposal_bps_;
  State state_ = State::kClosed;
  int open_intervals_elapsed_ = 0;
  int valid_probes_ = 0;
  int64_t trip_count_ = 0;
  int64_t fallback_interval_count_ = 0;
  int64_t recovery_count_ = 0;
};

}  // namespace mocc

#endif  // MOCC_SRC_RL_GUARDED_POLICY_H_
