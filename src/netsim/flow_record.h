// Per-flow measurement record produced by the packet-level simulator: monitor-interval
// samples, packet totals, and the ACK/delivery logs the benchmark harnesses bin into the
// paper's timelines (throughput vs time, inter-packet delay, Jain index per second, ...).
#ifndef MOCC_SRC_NETSIM_FLOW_RECORD_H_
#define MOCC_SRC_NETSIM_FLOW_RECORD_H_

#include <cstdint>
#include <vector>

#include "src/netsim/cc_interface.h"

namespace mocc {

struct MiSample {
  double time_s = 0.0;
  double duration_s = 0.0;
  double send_rate_bps = 0.0;
  double throughput_bps = 0.0;
  double avg_rtt_s = 0.0;
  double loss_rate = 0.0;
  double ecn_rate = 0.0;  // ECN-marked / acked within the MI
};

class FlowRecord {
 public:
  void RecordMi(const MonitorReport& report);
  // Logs one acknowledged data packet (kDefaultPacketSizeBits) at `time_s`.
  void RecordAck(double time_s);
  void RecordDelivery(double time_s);

  const std::vector<MiSample>& mi_samples() const { return mi_samples_; }
  const std::vector<double>& ack_times() const { return ack_times_; }
  const std::vector<double>& delivery_times() const { return delivery_times_; }

  int64_t total_sent = 0;
  int64_t total_acked = 0;
  int64_t total_lost = 0;
  int64_t total_marked = 0;  // ACKs that carried an ECN congestion mark
  int64_t bits_acked = 0;
  double first_send_time_s = -1.0;
  double last_ack_time_s = 0.0;
  double min_rtt_s = 0.0;  // 0 until the first ACK

  // Whether RecordDelivery should keep per-packet delivery timestamps (used by the RTC
  // inter-packet-delay analysis; off by default to save memory).
  bool keep_delivery_times = false;

  // Mean delivered throughput (bps) between t0 and t1, from the ACK log.
  double AvgThroughputBps(double t0_s, double t1_s) const;

  // Delivered throughput in Mbps for each `bin_s`-second bin of [t0, t1).
  std::vector<double> BinnedThroughputMbps(double t0_s, double t1_s, double bin_s) const;

  // Mean RTT over all monitor intervals weighted by acked packets (approximated by MI
  // throughput x duration). Returns 0 when no samples.
  double AvgRttS() const;

  // Overall loss rate: lost / (acked + lost).
  double LossRate() const;

  // Gaps between consecutive packet deliveries in seconds (requires
  // keep_delivery_times). Used for the paper's inter-packet delay metric (Figure 9).
  std::vector<double> InterDeliveryGapsS() const;

 private:
  std::vector<MiSample> mi_samples_;
  std::vector<double> ack_times_;
  std::vector<double> delivery_times_;
};

}  // namespace mocc

#endif  // MOCC_SRC_NETSIM_FLOW_RECORD_H_
