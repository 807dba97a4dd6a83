#include "src/core/mocc_api.h"

#include <array>
#include <cassert>
#include <cmath>
#include <utility>

#include "src/serving/serving_engine.h"

namespace mocc {
namespace {

// A weight vector as the engine's observation prefix, sanitized like every
// other weight entry point.
std::array<double, 3> Prefix(const WeightVector& w) {
  const WeightVector sanitized = w.Sanitized();
  return {sanitized.thr, sanitized.lat, sanitized.loss};
}

}  // namespace

bool ValidMonitorReport(const MonitorReport& report) {
  const double non_negative[] = {report.duration_s,     report.send_rate_bps,
                                 report.throughput_bps, report.avg_rtt_s,
                                 report.min_rtt_s,      report.loss_rate,
                                 report.ecn_rate};
  for (const double v : non_negative) {
    if (!std::isfinite(v) || v < 0.0) {
      return false;
    }
  }
  return std::isfinite(report.start_time_s) && report.packets_sent >= 0 &&
         report.packets_acked >= 0 && report.packets_lost >= 0 &&
         report.packets_marked >= 0;
}

MoccServing::MoccServing(const PolicySpec& spec, const Options& options) {
  std::shared_ptr<PreferenceActorCritic> model = spec.ResolveModel();
  assert(model != nullptr && "use CreateService() to handle resolution failure");
  const RlRateController::Options decision =
      spec.ControllerOptions(model->config(), spec.weights(), spec.initial_rate_bps());
  engine_ = std::make_unique<ServingEngine>(std::move(model), decision, options);
}

MoccServing::~MoccServing() = default;

ServingConnId MoccServing::AttachConnection(const WeightVector& w) {
  return AttachConnection(w, ConnectionOptions{});
}

ServingConnId MoccServing::AttachConnection(const WeightVector& w,
                                            const ConnectionOptions& options) {
  return engine_->Attach(Prefix(w).data(), options);
}

bool MoccServing::DetachConnection(ServingConnId id) { return engine_->Detach(id); }

bool MoccServing::SwitchObjective(ServingConnId id, const WeightVector& w) {
  return engine_->SwitchObjective(id, Prefix(w).data());
}

void MoccServing::OnFlowStart(ServingConnId id, double now_s) {
  engine_->OnFlowStart(id, now_s);
}

void MoccServing::OnPacketSent(ServingConnId id, int64_t packets) {
  engine_->OnPacketSent(id, packets);
}

void MoccServing::OnAck(ServingConnId id, const AckInfo& ack) { engine_->OnAck(id, ack); }

void MoccServing::OnLoss(ServingConnId id, const LossInfo& loss) {
  engine_->OnLoss(id, loss);
}

void MoccServing::OnTimeout(ServingConnId id, double now_s) {
  engine_->OnTimeout(id, now_s);
}

bool MoccServing::SubmitReport(ServingConnId id, const MonitorReport& report) {
  return engine_->SubmitReport(id, report);
}

bool MoccServing::PostReport(ServingConnId id, const MonitorReport& report) {
  return engine_->PostReport(id, report);
}

size_t MoccServing::RatePoll() { return engine_->PollPending(); }

size_t MoccServing::RatePoll(double now_s) { return engine_->PollAt(now_s); }

double MoccServing::RateBps(ServingConnId id) const { return engine_->RateBps(id); }

int64_t MoccServing::DecisionCount(ServingConnId id) const {
  return engine_->DecisionCount(id);
}

const GuardedPolicy* MoccServing::Guard(ServingConnId id) const {
  return engine_->Guard(id);
}

const MoccServing::Stats& MoccServing::stats() const { return engine_->stats(); }

size_t MoccServing::attached() const { return engine_->attached(); }

int64_t MoccServing::PnRecomputeCount() const { return engine_->PnRecomputeCount(); }

std::unique_ptr<MoccServing> CreateService(const PolicySpec& spec,
                                           const MoccServing::Options& options) {
  if (spec.ResolveModel() == nullptr) {
    return nullptr;  // ResolveModel already printed the diagnostic
  }
  return std::make_unique<MoccServing>(spec, options);
}

MoccApi::MoccApi(std::shared_ptr<PreferenceActorCritic> model, const Options& options)
    : options_(options) {
  assert(model != nullptr);
  assert(model->obs_dim() == options_.config.ObsDim());
  controller_ = PolicySpec()
                    .WithModel(std::move(model))
                    .WithInitialRate(options_.initial_rate_bps)
                    .WithRateBounds(options_.min_rate_bps, options_.max_rate_bps)
                    .MakeController();
}

MoccApi::~MoccApi() = default;

void MoccApi::Register(const WeightVector& w) {
  weight_ = w.Sanitized();
  // History and rate carry over a switch.
  controller_->SetObservationPrefix({weight_.thr, weight_.lat, weight_.loss});
  registered_ = true;
}

void MoccApi::ReportStatus(const MonitorReport& status) {
  assert(registered_ && "Register(w) must be called before ReportStatus");
  if (!ValidMonitorReport(status)) {
    return;
  }
  estimator_.Observe(status);
  last_reward_ = DynamicReward(weight_, status, estimator_.CapacityBps(),
                               estimator_.BaseRttS());
  controller_->OnMonitorInterval(status);
}

double MoccApi::GetSendingRate() const { return controller_->PacingRateBps(); }

int64_t MoccApi::inference_count() const { return controller_->inference_count(); }

}  // namespace mocc
