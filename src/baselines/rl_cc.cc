#include "src/baselines/rl_cc.h"

#include <cassert>

#include "src/serving/serving_engine.h"

namespace mocc {

struct RlRateController::Connection {
  Connection(std::shared_ptr<ActorCritic> model, const Options& options)
      : engine(std::move(model), options, OneConnection()) {
    MoccServing::ConnectionOptions connection;
    connection.initial_rate_bps = options.initial_rate_bps;
    id = engine.Attach(options.observation_prefix.data(), connection);
  }

  // A default-sized service writes a 1024-cell report ring at construction; one
  // externally clocked connection needs one wheel bucket and the minimum ring.
  static MoccServing::Options OneConnection() {
    MoccServing::Options options;
    options.wheel_slots = 1;
    options.report_ring_capacity = 2;
    return options;
  }

  ServingEngine engine;
  ServingConnId id;
};

RlRateController::RlRateController(std::shared_ptr<ActorCritic> model, Options options)
    : conn_(std::make_unique<Connection>(std::move(model), options)),
      name_(std::move(options.name)),
      rate_bps_(options.initial_rate_bps) {}

RlRateController::~RlRateController() = default;

void RlRateController::SetObservationPrefix(std::vector<double> prefix) {
  assert(prefix.size() == conn_->engine.weight_dim());
  conn_->engine.SwitchObjective(conn_->id, prefix.data());
}

void RlRateController::OnFlowStart(double now_s) {
  conn_->engine.OnFlowStart(conn_->id, now_s);
}

void RlRateController::OnAck(const AckInfo& ack) { conn_->engine.OnAck(conn_->id, ack); }

void RlRateController::OnPacketLost(const LossInfo& loss) {
  conn_->engine.OnLoss(conn_->id, loss);
}

void RlRateController::OnTimeout(double now_s) {
  conn_->engine.OnTimeout(conn_->id, now_s);
}

void RlRateController::OnMonitorInterval(const MonitorReport& report) {
  if (!conn_->engine.SubmitReport(conn_->id, report)) {
    return;
  }
  conn_->engine.PollPending();
  rate_bps_ = conn_->engine.RateBps(conn_->id);
}

int64_t RlRateController::inference_count() const {
  return conn_->engine.DecisionCount(conn_->id);
}

const GuardedPolicy* RlRateController::guard() const {
  return conn_->engine.Guard(conn_->id);
}

}  // namespace mocc
