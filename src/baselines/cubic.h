// TCP CUBIC (Ha, Rhee & Xu 2008 / RFC 8312): loss-based congestion control whose window
// grows as a cubic function of time since the last congestion event. One of the paper's
// handcrafted baselines (§6, scheme 7).
#ifndef MOCC_SRC_BASELINES_CUBIC_H_
#define MOCC_SRC_BASELINES_CUBIC_H_

#include "src/netsim/cc_interface.h"

namespace mocc {

struct CubicConfig {
  double beta = 0.7;          // multiplicative decrease factor
  double c = 0.4;             // cubic scaling constant
  double initial_cwnd = 10.0;
  double min_cwnd = 2.0;
};

class CubicCc final : public CongestionControl {
 public:
  explicit CubicCc(const CubicConfig& config = {});

  CcMode Mode() const override { return CcMode::kWindowBased; }
  std::string Name() const override { return "TCP CUBIC"; }

  void OnFlowStart(double now_s) override;
  void OnAck(const AckInfo& ack) override;
  void OnPacketLost(const LossInfo& loss) override;
  void OnTimeout(double now_s) override;

  double CwndPackets() const override { return cwnd_; }
  double ssthresh() const { return ssthresh_; }
  bool in_slow_start() const { return cwnd_ < ssthresh_; }

 private:
  void EnterCongestionEpoch(double now_s);

  CubicConfig config_;
  double cwnd_;
  double ssthresh_;
  double w_max_ = 0.0;
  double k_ = 0.0;              // time to reach w_max on the cubic curve
  double epoch_start_s_ = -1.0;
  double last_reduction_s_ = -1.0;
  double srtt_s_ = 0.0;
};

}  // namespace mocc

#endif  // MOCC_SRC_BASELINES_CUBIC_H_
