// The implementation behind MoccServing (src/core/mocc_api.h) and every
// RlRateController (src/baselines/rl_cc.h, a one-connection engine): connection
// slab + deadline wheel + batched forward passes over ONE shared model/replica.
// This is the only place a deployed RL sending rate is decided.
//
// Decision pipeline per RatePoll:
//   1. (timed polls) advance the wheel; every due self-timed connection
//      synthesizes a MonitorReport from its packet accumulators and is ingested
//      like a submitted one, then its next deadline is scheduled.
//   2. Ingestion (IngestReport): the guard's fallback feed and the history
//      push. Every report is checked with ValidMonitorReport before it gets
//      there — in SubmitReport, in PostReport on the producer side, and on
//      each synthesized report — so a malformed one never touches the
//      connection.
//   3. Guard pre-pass: breaker-open connections take the fallback rate and skip
//      inference.
//   4. The remaining connections are grouped by weight prefix — an O(n) counting
//      pass over interned prefix ids, not a comparison sort — and decided in
//      batched forwards of at most kMaxBatchRows rows (float32/int8:
//      ActionMeansF32 over rows narrowed straight out of the slab; double:
//      sequential ActionMean on the shared model). Grouping costs nothing
//      semantically — PN features are a pure function of the prefix — and makes
//      the replica's rolling PN cache recompute once per distinct prefix instead
//      of once per row (the cache carries across chunk boundaries, so a group
//      split over two chunks still pays one recompute).
//   5. Eq. (1) rate update + clamp (guard-validated when guarded). Each
//      connection's rates are independent of which other connections share its
//      batch; tests/serving_test.cc checks them against a reference built from
//      the training-side primitives.
//
// Threading: the engine itself stays single-threaded — slab, wheel, guards and
// the batched forwards all run on the one consumer thread that calls
// RatePoll/Attach/Detach. The ONE cross-thread surface is PostReport, which
// enqueues into a lock-free bounded MPSC ring (src/serving/report_ring.h);
// every poll drains the ring on the consumer thread and validates each entry
// there (stale handle, self-timed, duplicate pending, malformed → dropped,
// counted in stats). SubmitReport is the single-producer degenerate form,
// calling the same IngestReport the ring drain uses, and must only be called
// from the consumer thread.
#ifndef MOCC_SRC_SERVING_SERVING_ENGINE_H_
#define MOCC_SRC_SERVING_SERVING_ENGINE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/baselines/rl_cc.h"
#include "src/core/mocc_api.h"
#include "src/rl/actor_critic.h"
#include "src/rl/inference_policy.h"
#include "src/serving/connection_slab.h"
#include "src/serving/deadline_wheel.h"
#include "src/serving/report_ring.h"

namespace mocc {

class ServingEngine {
 public:
  // Rows per batched forward. Caps the staging matrices (narrowed obs, concat
  // rows, layer ping/pong) at a footprint that stays cache-resident however many
  // connections expire in one tick, and bounds the stall one RatePoll imposes on
  // the datapath thread. 256 rows x ~30 floats is ~30 KB per staging buffer.
  static constexpr size_t kMaxBatchRows = 256;

  // `decision` carries the decision parameters: η, α, ECN width, rate bounds,
  // precision and guard. The length of its observation_prefix is the weight
  // dimension of every connection's prefix (3 for MOCC, 0 for Aurora-shaped
  // models); its values and initial rate are not used — each Attach brings its
  // own. `model` must be non-null with obs_dim = weight dim + history width.
  ServingEngine(std::shared_ptr<ActorCritic> model,
                const RlRateController::Options& decision,
                const MoccServing::Options& options);

  // `prefix` points at weight-dimension doubles, used as given.
  ServingConnId Attach(const double* prefix,
                       const MoccServing::ConnectionOptions& options);
  bool Detach(ServingConnId id);
  bool SwitchObjective(ServingConnId id, const double* prefix);

  void OnFlowStart(ServingConnId id, double now_s);
  void OnPacketSent(ServingConnId id, int64_t packets);
  void OnAck(ServingConnId id, const AckInfo& ack);
  void OnLoss(ServingConnId id, const LossInfo& loss);
  void OnTimeout(ServingConnId id, double now_s);

  bool SubmitReport(ServingConnId id, const MonitorReport& report);
  bool PostReport(ServingConnId id, const MonitorReport& report);
  size_t PollPending();
  size_t PollAt(double now_s);

  double RateBps(ServingConnId id) const;
  int64_t DecisionCount(ServingConnId id) const;
  const GuardedPolicy* Guard(ServingConnId id) const;

  const MoccServing::Stats& stats() const { return stats_; }
  size_t weight_dim() const { return slab_.weight_dim(); }
  size_t attached() const { return slab_.attached(); }
  int64_t PnRecomputeCount() const;

 private:
  // Ingests one well-formed report (guard fallback feed + slab history push)
  // and queues the slot for the next decision batch.
  void IngestReport(int32_t slot, const MonitorReport& report);
  // Drains every ring entry on the consumer thread: validates (live handle, not
  // self-timed, no report already pending) and ingests, dropping the rest.
  // Returns the number ingested. Runs at the top of every poll.
  size_t DrainReportRing();
  // Decides every queued slot (in forwards of at most kMaxBatchRows); clears the
  // queue.
  size_t DecideBatch();
  double FallbackRate(int32_t slot) const;
  uint64_t TickFor(double now_s) const;
  // Returns the stable id of the weight prefix `w` (weight_dim doubles), adding
  // it to the registry on first sight. Linear scan: services see a handful of
  // distinct objectives in practice, and the scan runs once per attach/switch,
  // never on the per-decision path.
  int32_t InternPrefix(const double* w);

  std::shared_ptr<ActorCritic> model_;
  // Shared float32 or int8 replica; null = double path (also when the model has
  // no replica for the requested precision).
  std::unique_ptr<InferencePolicy> policy_;
  bool guarded_;
  double action_scale_;
  double min_rate_bps_;
  double max_rate_bps_;
  size_t obs_dim_ = 0;
  double tick_s_;

  ConnectionSlab slab_;
  DeadlineWheel wheel_;
  ReportRing ring_;
  MoccServing::Stats stats_;

  std::vector<int32_t> queued_;  // slots with an ingested, undecided report
  // Distinct weight prefixes ever seen, weight_dim doubles each (index = id).
  std::vector<double> prefix_registry_;
  size_t prefix_count_ = 0;
  // Batch scratch (capacity reused across polls).
  std::vector<DeadlineWheel::Entry> due_;
  std::vector<int32_t> infer_slots_;
  std::vector<int32_t> sorted_slots_;   // infer_slots_ grouped by prefix id
  std::vector<int32_t> prefix_counts_;  // counting-pass scratch
  std::vector<float> batch_obs_f32_;
  std::vector<float> means_f32_;
  std::vector<double> obs_scratch_;
};

}  // namespace mocc

#endif  // MOCC_SRC_SERVING_SERVING_ENGINE_H_
