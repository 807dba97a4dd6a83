// Per-connection state for the serving layer, packed structure-of-arrays style:
// one contiguous array per field, indexed by slot. The hot path (batch assembly
// in ServingEngine::DecideBatch) streams the observation rows of the due
// connections out of one flat double array instead of chasing N controller
// objects, and every non-obs field a decision touches (rate, RTT state,
// counters) lives in its own contiguous run.
//
// Observation rows are the policy input, weight prefix then history:
//   [w | g(t-η+1) ... g(t)]   (weight_dim + 3η doubles; weight_dim + 4η with
//   the ECN-mark component for ECN-aware models)
// where w is MOCC's weight vector (weight_dim 3) or empty for Aurora-shaped
// models (weight_dim 0), and the history suffix is a MiHistoryTracker row kept
// in place by MiHistoryTracker::Push.
//
// Slots are recycled through a free list; every detach bumps the slot's
// generation so stale ServingConnId handles (and stale deadline-wheel entries)
// are rejected instead of touching the new occupant.
#ifndef MOCC_SRC_SERVING_CONNECTION_SLAB_H_
#define MOCC_SRC_SERVING_CONNECTION_SLAB_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/baselines/cubic.h"
#include "src/envs/mi_history.h"
#include "src/rl/guarded_policy.h"

namespace mocc {

class ConnectionSlab {
 public:
  // `obs_dim` = weight_dim + (include_ecn ? 4 : 3) * history_len; include_ecn
  // must match the served model's ECN-observation layout. When `guarded`, every
  // attach provisions a GuardedPolicy (from `guard_options`) and a warm-standby
  // CUBIC fallback for the slot.
  ConnectionSlab(size_t weight_dim, size_t history_len, bool include_ecn, bool guarded,
                 const GuardedPolicy::Options& guard_options);

  // Claims a slot (free list first, then growth), initializes its observation row
  // (weight prefix + neutral history), rate and MI state, and returns the slot
  // index. `weights` must already be sanitized, `weights[0..weight_dim)`.
  int32_t Attach(const double* weights, double initial_rate_bps);

  // Releases the slot back to the free list and bumps its generation.
  void Detach(int32_t slot);

  // Overwrites the observation prefix (objective switch; history untouched).
  void SetWeightPrefix(int32_t slot, const double* weights);

  // Ingests one monitor interval: MiHistoryTracker::Push on the slot's row, and
  // records the report's RTT fields for fallback-rate computation.
  void ApplyReport(int32_t slot, const MonitorReport& report);

  double* ObsRow(int32_t slot) { return obs.data() + static_cast<size_t>(slot) * obs_dim_; }
  const double* ObsRow(int32_t slot) const {
    return obs.data() + static_cast<size_t>(slot) * obs_dim_;
  }

  bool Live(int32_t slot, uint32_t gen) const {
    return slot >= 0 && static_cast<size_t>(slot) < in_use.size() &&
           in_use[slot] != 0 && generation[slot] == gen;
  }

  size_t obs_dim() const { return obs_dim_; }
  size_t weight_dim() const { return weight_dim_; }
  size_t capacity() const { return in_use.size(); }
  size_t attached() const { return attached_; }

  // Parallel per-slot arrays (public by design: the engine is the only consumer
  // and indexes them on its hot path).
  std::vector<double> obs;             // capacity x obs_dim, row-major
  std::vector<double> rate_bps;
  // Interned weight-prefix id, assigned by the engine (ServingEngine::InternPrefix)
  // on attach and objective switch. Lets the decision batch group equal prefixes
  // with an O(n) counting pass instead of a comparison sort over double triples.
  std::vector<int32_t> prefix_id;
  std::vector<MiHistoryTracker::RttState> history_rtt;
  std::vector<double> last_avg_rtt_s;  // most recent report, for FallbackRate
  std::vector<double> last_min_rtt_s;
  std::vector<int64_t> decision_count;
  std::vector<uint32_t> generation;
  std::vector<uint8_t> in_use;
  std::vector<uint8_t> report_pending;  // submitted, not yet decided
  std::vector<uint8_t> self_timed;      // driven by the deadline wheel
  // MI accumulators for self-timed connections (reset after each synthesized
  // report).
  std::vector<int64_t> mi_sent;
  std::vector<int64_t> mi_acked;
  std::vector<int64_t> mi_lost;
  std::vector<double> mi_rtt_sum_s;
  std::vector<double> conn_min_rtt_s;  // historical min ACK RTT (report.min_rtt_s)
  std::vector<double> mi_start_s;
  std::vector<uint32_t> mi_ticks;      // interval length in service ticks
  // Guard state (sized only when guarded).
  std::vector<GuardedPolicy> guards;
  // CubicCc is final, so the per-report and per-ACK feeds are direct calls.
  std::vector<std::unique_ptr<CubicCc>> fallbacks;

 private:
  void GrowTo(size_t capacity);

  size_t weight_dim_;
  MiHistoryTracker history_;  // the row layout and the push
  size_t obs_dim_;
  bool guarded_;
  GuardedPolicy::Options guard_options_;
  size_t attached_ = 0;
  std::vector<int32_t> free_slots_;
};

}  // namespace mocc

#endif  // MOCC_SRC_SERVING_CONNECTION_SLAB_H_
