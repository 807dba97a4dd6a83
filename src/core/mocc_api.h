// The deployable MOCC library facade (§5), at two scales.
//
// Connection scale — MoccServing: one service instance terminates many flows
// behind a c4/picoquic-style registration surface:
//
//   PolicySpec spec; spec.WithCheckpoint("model.bin").WithPrecision(Precision::kFloat32);
//   auto service = CreateService(spec);
//   ServingConnId id = service->AttachConnection(w);       // per new connection
//   service->OnAck(id, ack); service->OnLoss(id, loss);    // per-packet feedback
//   service->SubmitReport(id, report);                     // external MI clocking, or
//   service->PostReport(id, report);                       // ...from another thread, or
//   service->RatePoll(now_s);                              // service-tick clocking
//   double rate = service->RateBps(id);
//
// All attached connections share ONE model and ONE float32 inference replica;
// per-connection state lives in a contiguous slab (src/serving/connection_slab.h)
// and connections whose monitor intervals expire in the same service tick are
// collected by a deadline wheel and decided in one batched forward pass
// (src/serving/serving_engine.h) instead of N single-row calls.
//
// Single connection — MoccApi: the paper's three-function facade
// (Register / ReportStatus / GetSendingRate), a thin veneer over one
// RlRateController (src/baselines/rl_cc.h), which is itself a one-connection
// serving engine: embedders that start with the paper API decide exactly as
// they would on a MoccServing when they scale out.
#ifndef MOCC_SRC_CORE_MOCC_API_H_
#define MOCC_SRC_CORE_MOCC_API_H_

#include <array>
#include <cstdint>
#include <memory>

#include "src/core/mocc_config.h"
#include "src/core/policy_spec.h"
#include "src/core/preference_model.h"
#include "src/core/reward.h"
#include "src/core/weight_vector.h"
#include "src/netsim/cc_interface.h"
#include "src/rl/guarded_policy.h"

namespace mocc {

class ServingEngine;

// The ingestion rule for monitor reports, applied to every report before it
// touches a connection's history: every field finite, and no negative count,
// duration, rate or RTT. A NaN average RTT (an embedder computing
// rtt_sum / acked on an MI without ACKs) would otherwise pin the connection's
// running min RTT to NaN for its lifetime. Zero-duration reports pass — the
// latency-gradient term already ignores them.
bool ValidMonitorReport(const MonitorReport& report);

// Handle to one attached connection. Stale handles (detached, or a recycled slot)
// are rejected by every MoccServing call — the slot's generation must match.
struct ServingConnId {
  int32_t slot = -1;
  uint32_t generation = 0;
  bool valid() const { return slot >= 0; }
};

class MoccServing {
 public:
  struct Options {
    // Service tick length: the granularity at which self-timed monitor intervals
    // expire (and therefore batch together).
    double tick_s = 0.001;
    // Deadline-wheel ring size (rounded up to a power of two).
    size_t wheel_slots = 256;
    // Capacity of the lock-free MPSC report ring behind PostReport (rounded up
    // to a power of two). A full ring fails PostReport — size it to cover the
    // producers' burst between two RatePoll calls.
    size_t report_ring_capacity = 1024;
  };

  struct ConnectionOptions {
    double initial_rate_bps = 2e6;
    // > 0: the service clocks this connection's monitor intervals itself on the
    // tick wheel (rounded to whole ticks, minimum one) and synthesizes reports
    // from the OnPacketSent/OnAck/OnLoss accumulators; SubmitReport is rejected.
    // 0 (default): the embedder submits MonitorReports explicitly.
    double mi_duration_s = 0.0;
    // Wheel start time for self-timed connections (first deadline is
    // start_time_s + mi_duration_s).
    double start_time_s = 0.0;
  };

  struct Stats {
    int64_t decisions = 0;   // policy inferences across all connections
    int64_t polls = 0;       // RatePoll calls
    int64_t max_batch = 0;   // largest single batched forward
    // Histogram of batched-forward sizes: bucket i counts batches of size in
    // [2^i, 2^(i+1)).
    std::array<int64_t, 16> batch_size_log2_hist{};
    // PostReport ring traffic: entries drained and ingested, and entries
    // dropped at drain time (stale handle, self-timed, duplicate pending,
    // malformed).
    int64_t ring_reports = 0;
    int64_t ring_dropped = 0;
  };

  MoccServing(const PolicySpec& spec, const Options& options);
  ~MoccServing();
  MoccServing(const MoccServing&) = delete;
  MoccServing& operator=(const MoccServing&) = delete;

  // Attaches a connection with requirement `w` (sanitized internally). The
  // returned handle indexes slab state directly; slots are recycled after
  // DetachConnection with a bumped generation.
  ServingConnId AttachConnection(const WeightVector& w);
  ServingConnId AttachConnection(const WeightVector& w,
                                 const ConnectionOptions& options);
  bool DetachConnection(ServingConnId id);

  // Re-registers the connection's objective; rate control picks up the new
  // preference at its next decision. History and rate carry over.
  bool SwitchObjective(ServingConnId id, const WeightVector& w);

  // Per-packet feedback. Feeds the guard's warm-standby fallback (when the spec
  // is guarded) and, for self-timed connections, the MI accumulators.
  void OnFlowStart(ServingConnId id, double now_s);
  void OnPacketSent(ServingConnId id, int64_t packets = 1);
  void OnAck(ServingConnId id, const AckInfo& ack);
  void OnLoss(ServingConnId id, const LossInfo& loss);
  void OnTimeout(ServingConnId id, double now_s);

  // Queues one monitor interval's statistics for an externally clocked
  // connection (at most one per RatePoll; self-timed connections and malformed
  // reports are rejected). The decision happens at the next RatePoll. Consumer
  // thread only — this is the single-producer form of PostReport, validated
  // synchronously.
  bool SubmitReport(ServingConnId id, const MonitorReport& report);

  // Thread-safe report submission: enqueues through a lock-free bounded MPSC
  // ring and returns immediately. Callable from any number of producer threads
  // concurrently with each other (all other MoccServing calls stay on the one
  // consumer thread). Validation is deferred to the next RatePoll, which
  // drains the ring on the consumer thread: stale handles, self-timed
  // connections, duplicate pending reports and malformed reports are dropped
  // there (counted in stats().ring_dropped), exactly the submissions
  // SubmitReport rejects synchronously. Returns false only when the ring is
  // full — backpressure; the caller may retry after the consumer's next poll,
  // or drop the report (monitor intervals are periodic, the next one carries
  // fresher data).
  // Decisions are bit-identical to the same reports fed through SubmitReport:
  // each connection has one producer, so its report order is preserved, and
  // per-connection decisions are independent of batch composition.
  bool PostReport(ServingConnId id, const MonitorReport& report);

  // Decides every queued report in one batched forward pass. Returns the number
  // of decisions made.
  size_t RatePoll();
  // Advances the service clock to `now_s` first: self-timed connections whose
  // intervals expired synthesize their reports and join the batch (a malformed
  // synthesized report — a NaN ACK RTT, say — skips that interval).
  size_t RatePoll(double now_s);

  // Sending rate (bits/second) for the next interval; 0 for stale handles.
  double RateBps(ServingConnId id) const;
  // Policy inferences for this connection (breaker-open intervals excluded).
  int64_t DecisionCount(ServingConnId id) const;
  // The connection's circuit breaker (nullptr when unguarded or stale). The
  // pointer is invalidated by the next AttachConnection (slab growth) — read,
  // don't hold.
  const GuardedPolicy* Guard(ServingConnId id) const;

  const Stats& stats() const;
  size_t attached() const;
  // The shared policy's PN recomputes (float32 specs only; -1 on the double
  // path) — one per distinct weight prefix per batch when batches are sorted.
  int64_t PnRecomputeCount() const;

 private:
  std::unique_ptr<ServingEngine> engine_;
};

// Builds a service from the spec (the one deployment surface — CLI tools, the
// bench and MoccApi all go through here). Returns nullptr when the spec's model
// cannot be resolved.
std::unique_ptr<MoccServing> CreateService(const PolicySpec& spec,
                                           const MoccServing::Options& options = {});

// The paper's single-connection facade: Register(w) / ReportStatus(s_t) /
// GetSendingRate(). Runs pure double-precision inference on the shared model
// through one RlRateController, plus the §4.1 online estimators.
class MoccApi {
 public:
  struct Options {
    MoccConfig config;
    double initial_rate_bps = 2e6;
    double min_rate_bps = 0.1e6;
    double max_rate_bps = 400e6;
  };

  // `model` must match options.config's architecture. The model is shared: many
  // MoccApi instances (one per connection) can serve different applications from
  // one model — the multi-objective property.
  MoccApi(std::shared_ptr<PreferenceActorCritic> model, const Options& options);
  explicit MoccApi(std::shared_ptr<PreferenceActorCritic> model)
      : MoccApi(std::move(model), Options{}) {}
  ~MoccApi();

  // Registers the application requirement. May be called again at any time to
  // switch objectives; rate control picks up the new preference at the next
  // ReportStatus (history carries over).
  void Register(const WeightVector& w);

  // Reports the latest network status; MOCC updates its rate decision (Eq. 1).
  // A malformed status (ValidMonitorReport) is ignored: no decision, and the
  // estimators and LastReward stay as they were.
  void ReportStatus(const MonitorReport& status);

  // Sending rate (bits/second) for the next time interval.
  double GetSendingRate() const;

  const WeightVector& registered_weight() const { return weight_; }
  bool is_registered() const { return registered_; }
  // Policy inferences performed (one per ReportStatus) — overhead accounting (Fig 17).
  int64_t inference_count() const;
  // Online estimates (§4.1): observed capacity and base latency.
  double EstimatedCapacityBps() const { return estimator_.CapacityBps(); }
  double EstimatedBaseRttS() const { return estimator_.BaseRttS(); }
  // The dynamic reward (Eq. 2) of the most recent reported interval under the
  // registered weight — exposed for monitoring/adaptation triggers.
  double LastReward() const { return last_reward_; }

 private:
  Options options_;
  WeightVector weight_;
  bool registered_ = false;
  OnlineLinkEstimator estimator_;
  double last_reward_ = 0.0;
  std::unique_ptr<RlRateController> controller_;
};

}  // namespace mocc

#endif  // MOCC_SRC_CORE_MOCC_API_H_
