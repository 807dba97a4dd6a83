#include "src/serving/serving_engine.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "src/envs/cc_env.h"
#include "src/netsim/link_params.h"

namespace mocc {

ServingEngine::ServingEngine(std::shared_ptr<ActorCritic> model,
                             const RlRateController::Options& decision,
                             const MoccServing::Options& options)
    : model_(std::move(model)),
      guarded_(decision.guard),
      action_scale_(decision.action_scale),
      min_rate_bps_(decision.min_rate_bps),
      max_rate_bps_(decision.max_rate_bps),
      tick_s_(options.tick_s),
      slab_(decision.observation_prefix.size(), decision.history_len, decision.include_ecn,
            decision.guard,
            [&decision] {
              // The breaker's rate bounds can never disagree with the engine's.
              GuardedPolicy::Options guard_options = decision.guard_options;
              guard_options.min_rate_bps = decision.min_rate_bps;
              guard_options.max_rate_bps = decision.max_rate_bps;
              return guard_options;
            }()),
      wheel_(options.wheel_slots),
      ring_(options.report_ring_capacity) {
  assert(model_ != nullptr);
  assert(tick_s_ > 0.0);
  obs_dim_ = slab_.obs_dim();
  assert(model_->obs_dim() == obs_dim_);
  if (decision.precision == Precision::kFloat32) {
    policy_ = model_->MakeFloat32Policy();
  } else if (decision.precision == Precision::kInt8) {
    policy_ = model_->MakeInt8Policy();
  }
}

uint64_t ServingEngine::TickFor(double now_s) const {
  // Round to the nearest tick so 0.020/0.001 == 19.999... still lands on 20.
  return static_cast<uint64_t>(now_s / tick_s_ + 0.5);
}

ServingConnId ServingEngine::Attach(const double* prefix,
                                    const MoccServing::ConnectionOptions& options) {
  const int32_t slot = slab_.Attach(prefix, options.initial_rate_bps);
  slab_.prefix_id[slot] = InternPrefix(prefix);
  if (options.mi_duration_s > 0.0) {
    slab_.self_timed[slot] = 1;
    slab_.mi_ticks[slot] = static_cast<uint32_t>(
        std::max<int64_t>(1, std::llround(options.mi_duration_s / tick_s_)));
    slab_.mi_start_s[slot] = options.start_time_s;
    wheel_.Schedule(slot, slab_.generation[slot],
                    TickFor(options.start_time_s) + slab_.mi_ticks[slot]);
  }
  return {slot, slab_.generation[slot]};
}

bool ServingEngine::Detach(ServingConnId id) {
  if (!slab_.Live(id.slot, id.generation)) {
    return false;
  }
  // Drop any not-yet-decided report for the slot (the wheel's stale entries die
  // on the generation bump inside Detach).
  queued_.erase(std::remove(queued_.begin(), queued_.end(), id.slot), queued_.end());
  slab_.Detach(id.slot);
  return true;
}

bool ServingEngine::SwitchObjective(ServingConnId id, const double* prefix) {
  if (!slab_.Live(id.slot, id.generation)) {
    return false;
  }
  slab_.SetWeightPrefix(id.slot, prefix);
  slab_.prefix_id[id.slot] = InternPrefix(prefix);
  return true;
}

int32_t ServingEngine::InternPrefix(const double* w) {
  const size_t weight_dim = slab_.weight_dim();
  for (size_t g = 0; g < prefix_count_; ++g) {
    if (std::equal(w, w + weight_dim, prefix_registry_.data() + g * weight_dim)) {
      return static_cast<int32_t>(g);
    }
  }
  prefix_registry_.insert(prefix_registry_.end(), w, w + weight_dim);
  return static_cast<int32_t>(prefix_count_++);
}

void ServingEngine::OnFlowStart(ServingConnId id, double now_s) {
  if (!slab_.Live(id.slot, id.generation)) {
    return;
  }
  if (guarded_) {
    slab_.fallbacks[id.slot]->OnFlowStart(now_s);
  }
}

void ServingEngine::OnPacketSent(ServingConnId id, int64_t packets) {
  if (!slab_.Live(id.slot, id.generation)) {
    return;
  }
  slab_.mi_sent[id.slot] += packets;
}

void ServingEngine::OnAck(ServingConnId id, const AckInfo& ack) {
  if (!slab_.Live(id.slot, id.generation)) {
    return;
  }
  const int32_t slot = id.slot;
  if (guarded_) {
    slab_.fallbacks[slot]->OnAck(ack);
  }
  ++slab_.mi_acked[slot];
  slab_.mi_rtt_sum_s[slot] += ack.rtt_s;
  if (ack.rtt_s > 0.0 &&
      (slab_.conn_min_rtt_s[slot] <= 0.0 || ack.rtt_s < slab_.conn_min_rtt_s[slot])) {
    slab_.conn_min_rtt_s[slot] = ack.rtt_s;
  }
}

void ServingEngine::OnLoss(ServingConnId id, const LossInfo& loss) {
  if (!slab_.Live(id.slot, id.generation)) {
    return;
  }
  if (guarded_) {
    slab_.fallbacks[id.slot]->OnPacketLost(loss);
  }
  ++slab_.mi_lost[id.slot];
}

void ServingEngine::OnTimeout(ServingConnId id, double now_s) {
  if (!slab_.Live(id.slot, id.generation)) {
    return;
  }
  if (guarded_) {
    slab_.fallbacks[id.slot]->OnTimeout(now_s);
  }
}

void ServingEngine::IngestReport(int32_t slot, const MonitorReport& report) {
  // Fallback feed first, then the history push; the guard's BeginInterval gate
  // runs in DecideBatch.
  if (guarded_) {
    slab_.fallbacks[slot]->OnMonitorInterval(report);
  }
  slab_.ApplyReport(slot, report);
  slab_.report_pending[slot] = 1;
  queued_.push_back(slot);
}

bool ServingEngine::SubmitReport(ServingConnId id, const MonitorReport& report) {
  // The single-producer form: same validation and ingest the ring drain runs,
  // executed synchronously because the caller IS the consumer thread.
  if (!slab_.Live(id.slot, id.generation)) {
    return false;
  }
  if (slab_.self_timed[id.slot] != 0 || slab_.report_pending[id.slot] != 0 ||
      !ValidMonitorReport(report)) {
    return false;
  }
  IngestReport(id.slot, report);
  return true;
}

bool ServingEngine::PostReport(ServingConnId id, const MonitorReport& report) {
  // Producer side: no slab access — the handle may already be stale, and racing
  // a validation here against the consumer would be meaningless anyway. Only
  // the report itself is checked here, off the consumer's drain loop (which is
  // memory-bound: extra work per entry there shows in the poll's tail
  // latency). A malformed report travels under a null handle, which the drain
  // drops and counts like a stale one.
  return ring_.TryPush(ValidMonitorReport(report) ? id : ServingConnId{}, report);
}

size_t ServingEngine::DrainReportRing() {
  size_t ingested = 0;
  ReportRing::Entry entry;
  while (ring_.TryPop(&entry)) {
    const int32_t slot = entry.id.slot;
    if (!slab_.Live(slot, entry.id.generation) || slab_.self_timed[slot] != 0 ||
        slab_.report_pending[slot] != 0) {
      // Detached/recycled since the post, service-clocked, a second report
      // before the poll, or malformed (posted under a null handle) — the same
      // rejections SubmitReport makes synchronously.
      ++stats_.ring_dropped;
      continue;
    }
    IngestReport(slot, entry.report);
    ++ingested;
  }
  stats_.ring_reports += static_cast<int64_t>(ingested);
  return ingested;
}

double ServingEngine::FallbackRate(int32_t slot) const {
  // CUBIC's window as a pacing rate over the freshest RTT the last report
  // carried (the 1 ms floor covers MIs that saw no ACKs at all).
  const double rtt_s =
      std::max({slab_.last_avg_rtt_s[slot], slab_.last_min_rtt_s[slot], 1e-3});
  const double rate = slab_.fallbacks[slot]->CwndPackets() *
                      static_cast<double>(kDefaultPacketSizeBits) / rtt_s;
  return std::clamp(rate, min_rate_bps_, max_rate_bps_);
}

size_t ServingEngine::DecideBatch() {
  ++stats_.polls;
  if (queued_.empty()) {
    return 0;
  }
  const size_t processed = queued_.size();
  infer_slots_.clear();
  for (const int32_t slot : queued_) {
    slab_.report_pending[slot] = 0;
    if (guarded_ && !slab_.guards[slot].BeginInterval()) {
      // Breaker open: the fallback owns this interval and inference is skipped.
      slab_.rate_bps[slot] = FallbackRate(slot);
      continue;
    }
    infer_slots_.push_back(slot);
  }
  queued_.clear();
  const size_t n = infer_slots_.size();
  if (n == 0) {
    return processed;
  }
  // Group equal weight prefixes so the shared replica's rolling PN cache
  // recomputes once per distinct objective, not once per row. Pure reordering:
  // PN features depend only on the prefix, so results are order-independent.
  // The grouping is a counting pass over the interned prefix ids — O(n + G)
  // integer work, instead of an O(n log n) sort comparing double triples.
  prefix_counts_.assign(prefix_count_, 0);
  for (const int32_t slot : infer_slots_) {
    ++prefix_counts_[slab_.prefix_id[slot]];
  }
  int32_t offset = 0;
  for (size_t g = 0; g < prefix_count_; ++g) {
    const int32_t count = prefix_counts_[g];
    prefix_counts_[g] = offset;
    offset += count;
  }
  sorted_slots_.resize(n);
  for (const int32_t slot : infer_slots_) {
    sorted_slots_[prefix_counts_[slab_.prefix_id[slot]]++] = slot;
  }
  // Decide in forwards of at most kMaxBatchRows rows so the staging buffers stay
  // cache-resident at any connection count (and one huge tick cannot stall the
  // caller for the full batch). Chunking cannot change results: rows are
  // independent and the PN cache carries across chunks.
  for (size_t base = 0; base < n; base += kMaxBatchRows) {
    const size_t chunk = std::min(kMaxBatchRows, n - base);
    const int32_t* slots = sorted_slots_.data() + base;
    if (policy_ != nullptr) {
      // One batched float32 forward over rows narrowed straight out of the slab
      // — the same static_cast per element InferencePolicy::ActionMean applies
      // in NarrowObs.
      batch_obs_f32_.resize(chunk * obs_dim_);
      means_f32_.resize(chunk);
      for (size_t i = 0; i < chunk; ++i) {
        const double* row = slab_.ObsRow(slots[i]);
        float* dst = batch_obs_f32_.data() + i * obs_dim_;
        for (size_t k = 0; k < obs_dim_; ++k) {
          dst[k] = static_cast<float>(row[k]);
        }
      }
      policy_->ActionMeansF32(batch_obs_f32_.data(), chunk, means_f32_.data());
    }
    for (size_t i = 0; i < chunk; ++i) {
      const int32_t slot = slots[i];
      double action;
      if (policy_ != nullptr) {
        action = static_cast<double>(means_f32_[i]);
      } else {
        const double* row = slab_.ObsRow(slot);
        obs_scratch_.assign(row, row + obs_dim_);
        action = model_->ActionMean(obs_scratch_);
      }
      ++slab_.decision_count[slot];
      double& rate = slab_.rate_bps[slot];
      const double proposed = CcEnv::ApplyRateAction(rate, action, action_scale_);
      if (guarded_ && !slab_.guards[slot].ValidateDecision(action, proposed, rate)) {
        rate = FallbackRate(slot);
        continue;
      }
      rate = std::clamp(proposed, min_rate_bps_, max_rate_bps_);
    }
    stats_.max_batch = std::max(stats_.max_batch, static_cast<int64_t>(chunk));
    size_t bucket = 0;
    while ((chunk >> (bucket + 1)) != 0 &&
           bucket + 1 < stats_.batch_size_log2_hist.size()) {
      ++bucket;
    }
    ++stats_.batch_size_log2_hist[bucket];
  }
  stats_.decisions += static_cast<int64_t>(n);
  return processed;
}

size_t ServingEngine::PollPending() {
  DrainReportRing();
  return DecideBatch();
}

size_t ServingEngine::PollAt(double now_s) {
  DrainReportRing();
  due_.clear();
  wheel_.ExpireUpTo(TickFor(now_s), &due_);
  for (const DeadlineWheel::Entry& e : due_) {
    const int32_t slot = e.conn;
    if (!slab_.Live(slot, e.generation)) {
      continue;  // detached (or recycled) since scheduling
    }
    const double duration_s = slab_.mi_ticks[slot] * tick_s_;
    MonitorReport report;
    report.start_time_s = slab_.mi_start_s[slot];
    report.duration_s = duration_s;
    report.packets_sent = slab_.mi_sent[slot];
    report.packets_acked = slab_.mi_acked[slot];
    report.packets_lost = slab_.mi_lost[slot];
    report.send_rate_bps =
        static_cast<double>(slab_.mi_sent[slot] * kDefaultPacketSizeBits) / duration_s;
    report.throughput_bps =
        static_cast<double>(slab_.mi_acked[slot] * kDefaultPacketSizeBits) / duration_s;
    report.avg_rtt_s = slab_.mi_acked[slot] > 0
                           ? slab_.mi_rtt_sum_s[slot] /
                                 static_cast<double>(slab_.mi_acked[slot])
                           : 0.0;
    report.min_rtt_s = slab_.conn_min_rtt_s[slot];
    const int64_t acked_lost = slab_.mi_acked[slot] + slab_.mi_lost[slot];
    report.loss_rate = acked_lost > 0
                           ? static_cast<double>(slab_.mi_lost[slot]) /
                                 static_cast<double>(acked_lost)
                           : 0.0;
    // A malformed synthesized report (a NaN ACK RTT, say) skips this MI.
    if (ValidMonitorReport(report)) {
      IngestReport(slot, report);
    }
    slab_.mi_sent[slot] = 0;
    slab_.mi_acked[slot] = 0;
    slab_.mi_lost[slot] = 0;
    slab_.mi_rtt_sum_s[slot] = 0.0;
    slab_.mi_start_s[slot] = static_cast<double>(e.deadline_tick) * tick_s_;
    wheel_.Schedule(slot, e.generation, e.deadline_tick + slab_.mi_ticks[slot]);
  }
  return DecideBatch();
}

double ServingEngine::RateBps(ServingConnId id) const {
  if (!slab_.Live(id.slot, id.generation)) {
    return 0.0;
  }
  return slab_.rate_bps[id.slot];
}

int64_t ServingEngine::DecisionCount(ServingConnId id) const {
  if (!slab_.Live(id.slot, id.generation)) {
    return 0;
  }
  return slab_.decision_count[id.slot];
}

const GuardedPolicy* ServingEngine::Guard(ServingConnId id) const {
  if (!guarded_ || !slab_.Live(id.slot, id.generation)) {
    return nullptr;
  }
  return &slab_.guards[id.slot];
}

int64_t ServingEngine::PnRecomputeCount() const {
  const auto* pref = dynamic_cast<const PreferenceFloat32Policy*>(policy_.get());
  return pref != nullptr ? pref->pn_recompute_count() : -1;
}

}  // namespace mocc
