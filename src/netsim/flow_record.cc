#include "src/netsim/flow_record.h"

#include <algorithm>
#include <cmath>

#include "src/netsim/link_params.h"

namespace mocc {

void FlowRecord::RecordMi(const MonitorReport& report) {
  MiSample s;
  s.time_s = report.start_time_s;
  s.duration_s = report.duration_s;
  s.send_rate_bps = report.send_rate_bps;
  s.throughput_bps = report.throughput_bps;
  s.avg_rtt_s = report.avg_rtt_s;
  s.loss_rate = report.loss_rate;
  s.ecn_rate = report.ecn_rate;
  mi_samples_.push_back(s);
}

void FlowRecord::RecordAck(double time_s) {
  ack_times_.push_back(time_s);
  bits_acked += kDefaultPacketSizeBits;
  last_ack_time_s = time_s;
}

void FlowRecord::RecordDelivery(double time_s) {
  if (keep_delivery_times) {
    delivery_times_.push_back(time_s);
  }
}

double FlowRecord::AvgThroughputBps(double t0_s, double t1_s) const {
  if (t1_s <= t0_s) {
    return 0.0;
  }
  int64_t acked = 0;
  for (const double t : ack_times_) {
    if (t >= t0_s && t < t1_s) {
      ++acked;
    }
  }
  return static_cast<double>(acked * kDefaultPacketSizeBits) / (t1_s - t0_s);
}

std::vector<double> FlowRecord::BinnedThroughputMbps(double t0_s, double t1_s,
                                                     double bin_s) const {
  const size_t bins = t1_s > t0_s ? static_cast<size_t>(std::ceil((t1_s - t0_s) / bin_s)) : 0;
  std::vector<double> out(bins, 0.0);
  for (size_t i = 0; i < ack_times_.size(); ++i) {
    if (ack_times_[i] < t0_s || ack_times_[i] >= t1_s) {
      continue;
    }
    const size_t b = static_cast<size_t>((ack_times_[i] - t0_s) / bin_s);
    if (b < bins) {
      out[b] += static_cast<double>(kDefaultPacketSizeBits);
    }
  }
  for (auto& v : out) {
    v = v / bin_s / 1e6;
  }
  return out;
}

double FlowRecord::AvgRttS() const {
  double weighted = 0.0;
  double weight = 0.0;
  for (const auto& s : mi_samples_) {
    if (s.avg_rtt_s <= 0.0) {
      continue;
    }
    const double w = std::max(1.0, s.throughput_bps * s.duration_s);
    weighted += s.avg_rtt_s * w;
    weight += w;
  }
  return weight > 0.0 ? weighted / weight : 0.0;
}

double FlowRecord::LossRate() const {
  const int64_t denom = total_acked + total_lost;
  return denom > 0 ? static_cast<double>(total_lost) / static_cast<double>(denom) : 0.0;
}

std::vector<double> FlowRecord::InterDeliveryGapsS() const {
  std::vector<double> gaps;
  if (delivery_times_.size() < 2) {
    return gaps;
  }
  gaps.reserve(delivery_times_.size() - 1);
  for (size_t i = 1; i < delivery_times_.size(); ++i) {
    gaps.push_back(delivery_times_[i] - delivery_times_[i - 1]);
  }
  return gaps;
}

}  // namespace mocc
