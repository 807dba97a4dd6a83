// Builds the network-condition state vector g⃗(t,η) of §4.1 from a stream of monitor
// reports: per-interval <sending ratio l_t, latency ratio p_t, latency gradient q_t>,
// kept as a fixed-length history. The one g⃗(t,η) builder in the repository: the
// training environments and Orca push into a tracker-owned row, the serving slab
// (which every MOCC and Aurora controller runs on) pushes into its own per-connection
// rows through the same code, so observations are identical in training and deployment.
//
// The history is one flat row of entry_width() x η doubles, oldest first. It starts
// filled with the neutral observation <1,1,0[,0]>; each push shifts it left by one
// entry and writes the newest entry at the end.
#ifndef MOCC_SRC_ENVS_MI_HISTORY_H_
#define MOCC_SRC_ENVS_MI_HISTORY_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#include "src/netsim/cc_interface.h"

namespace mocc {

class MiHistoryTracker {
 public:
  // RTT state one history carries between intervals.
  struct RttState {
    double prev_avg_rtt_s = 0.0;  // last nonzero avg RTT (latency gradient)
    double min_rtt_hist_s = 0.0;  // running min of avg RTTs (latency ratio)
  };

  // With include_ecn the per-interval entry widens from 3 to 4 values by
  // appending the MI's ECN-mark fraction (marked/acked, clamped to [0,1]); the
  // neutral padding value for it is 0. Off by default: the 3-wide layout (and
  // thus every existing checkpoint's observation dimension) is unchanged.
  explicit MiHistoryTracker(size_t history_len, bool include_ecn = false)
      : history_len_(history_len), include_ecn_(include_ecn), row_(row_dim()) {
    FillNeutral(row_.data());
  }

  void Reset() {
    FillNeutral(row_.data());
    rtt_ = RttState{};
  }

  // Ingests one monitor interval's statistics.
  void Push(const MonitorReport& report) { Push(report, row_.data(), &rtt_); }

  // Appends the flattened history (row_dim() values, oldest first) to `obs`.
  void AppendObservation(std::vector<double>* obs) const {
    obs->insert(obs->end(), row_.begin(), row_.end());
  }

  // Caller-owned form of the history: `row` holds row_dim() doubles and `rtt` the
  // state that goes with it (the serving slab keeps one of each per connection).
  void FillNeutral(double* row) const {
    for (size_t i = 0; i < row_dim(); i += entry_width()) {
      row[i] = 1.0;
      row[i + 1] = 1.0;
      std::fill(row + i + 2, row + i + entry_width(), 0.0);
    }
  }

  void Push(const MonitorReport& report, double* row, RttState* rtt) const {
    const double acked = static_cast<double>(std::max<int64_t>(1, report.packets_acked));
    const double sent = static_cast<double>(report.packets_sent);
    const double send_ratio = std::clamp(sent / acked, 0.0, kMaxSendRatio);

    if (rtt->min_rtt_hist_s <= 0.0 ||
        (report.avg_rtt_s > 0.0 && report.avg_rtt_s < rtt->min_rtt_hist_s)) {
      rtt->min_rtt_hist_s = report.avg_rtt_s;
    }
    const double latency_ratio =
        rtt->min_rtt_hist_s > 0.0 && report.avg_rtt_s > 0.0
            ? std::clamp(report.avg_rtt_s / rtt->min_rtt_hist_s, 1.0, kMaxLatencyRatio)
            : 1.0;

    double gradient = 0.0;
    if (rtt->prev_avg_rtt_s > 0.0 && report.duration_s > 0.0 && report.avg_rtt_s > 0.0) {
      gradient = std::clamp((report.avg_rtt_s - rtt->prev_avg_rtt_s) / report.duration_s,
                            -kMaxLatencyGradient, kMaxLatencyGradient);
    }
    if (report.avg_rtt_s > 0.0) {
      rtt->prev_avg_rtt_s = report.avg_rtt_s;
    }

    if (history_len_ == 0) {
      return;
    }
    const size_t width = entry_width();
    std::memmove(row, row + width, (row_dim() - width) * sizeof(double));
    double* newest = row + row_dim() - width;
    newest[0] = send_ratio;
    newest[1] = latency_ratio;
    newest[2] = gradient;
    if (include_ecn_) {
      newest[3] = std::clamp(report.ecn_rate, 0.0, 1.0);
    }
  }

  size_t history_len() const { return history_len_; }
  size_t entry_width() const { return include_ecn_ ? 4 : 3; }
  size_t row_dim() const { return entry_width() * history_len_; }
  bool include_ecn() const { return include_ecn_; }

  static constexpr double kMaxSendRatio = 10.0;
  static constexpr double kMaxLatencyRatio = 10.0;
  static constexpr double kMaxLatencyGradient = 10.0;

 private:
  size_t history_len_;
  bool include_ecn_ = false;
  std::vector<double> row_;
  RttState rtt_;
};

}  // namespace mocc

#endif  // MOCC_SRC_ENVS_MI_HISTORY_H_
