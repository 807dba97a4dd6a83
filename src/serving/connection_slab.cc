#include "src/serving/connection_slab.h"

#include <algorithm>
#include <cassert>

namespace mocc {

ConnectionSlab::ConnectionSlab(size_t weight_dim, size_t history_len, bool include_ecn,
                               bool guarded, const GuardedPolicy::Options& guard_options)
    : weight_dim_(weight_dim),
      history_(history_len, include_ecn),
      obs_dim_(weight_dim + history_.row_dim()),
      guarded_(guarded),
      guard_options_(guard_options) {}

void ConnectionSlab::GrowTo(size_t capacity) {
  obs.resize(capacity * obs_dim_, 0.0);
  rate_bps.resize(capacity, 0.0);
  prefix_id.resize(capacity, -1);
  history_rtt.resize(capacity);
  last_avg_rtt_s.resize(capacity, 0.0);
  last_min_rtt_s.resize(capacity, 0.0);
  decision_count.resize(capacity, 0);
  generation.resize(capacity, 0);
  in_use.resize(capacity, 0);
  report_pending.resize(capacity, 0);
  self_timed.resize(capacity, 0);
  mi_sent.resize(capacity, 0);
  mi_acked.resize(capacity, 0);
  mi_lost.resize(capacity, 0);
  mi_rtt_sum_s.resize(capacity, 0.0);
  conn_min_rtt_s.resize(capacity, 0.0);
  mi_start_s.resize(capacity, 0.0);
  mi_ticks.resize(capacity, 0);
  if (guarded_) {
    guards.resize(capacity, GuardedPolicy(guard_options_));
    fallbacks.resize(capacity);
  }
}

int32_t ConnectionSlab::Attach(const double* weights, double initial_rate_bps) {
  int32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<int32_t>(in_use.size());
    GrowTo(in_use.size() + 1);
  }
  double* row = ObsRow(slot);
  std::copy(weights, weights + weight_dim_, row);
  history_.FillNeutral(row + weight_dim_);
  rate_bps[slot] = initial_rate_bps;
  prefix_id[slot] = -1;  // the engine interns the prefix right after Attach
  history_rtt[slot] = MiHistoryTracker::RttState{};
  last_avg_rtt_s[slot] = 0.0;
  last_min_rtt_s[slot] = 0.0;
  decision_count[slot] = 0;
  in_use[slot] = 1;
  report_pending[slot] = 0;
  self_timed[slot] = 0;
  mi_sent[slot] = 0;
  mi_acked[slot] = 0;
  mi_lost[slot] = 0;
  mi_rtt_sum_s[slot] = 0.0;
  conn_min_rtt_s[slot] = 0.0;
  mi_start_s[slot] = 0.0;
  mi_ticks[slot] = 0;
  if (guarded_) {
    guards[slot] = GuardedPolicy(guard_options_);
    fallbacks[slot] = std::make_unique<CubicCc>();
  }
  ++attached_;
  return slot;
}

void ConnectionSlab::Detach(int32_t slot) {
  assert(slot >= 0 && static_cast<size_t>(slot) < in_use.size() && in_use[slot] != 0);
  in_use[slot] = 0;
  ++generation[slot];  // kills stale ServingConnIds and wheel entries
  if (guarded_) {
    fallbacks[slot].reset();
  }
  free_slots_.push_back(slot);
  --attached_;
}

void ConnectionSlab::SetWeightPrefix(int32_t slot, const double* weights) {
  std::copy(weights, weights + weight_dim_, ObsRow(slot));
}

void ConnectionSlab::ApplyReport(int32_t slot, const MonitorReport& report) {
  history_.Push(report, ObsRow(slot) + weight_dim_, &history_rtt[slot]);
  last_avg_rtt_s[slot] = report.avg_rtt_s;
  last_min_rtt_s[slot] = report.min_rtt_s;
}

}  // namespace mocc
