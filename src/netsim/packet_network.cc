#include "src/netsim/packet_network.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace mocc {
namespace {

constexpr double kRtoCheckPeriodS = 0.2;
constexpr double kMinPacingRateBps = 1e4;
// Caps the packets a rate-based flow may keep in flight, bounding simulator memory when
// a scheme badly overshoots (PCC-style schemes have no congestion window).
constexpr int64_t kMaxInflightPkts = 200000;

}  // namespace

PacketNetwork::PacketNetwork(const NetworkTopology& topology, uint64_t seed)
    : rng_(seed) {
  assert(!topology.links.empty());
  links_.reserve(topology.links.size());
  for (const LinkSpec& spec : topology.links) {
    LinkState link;
    link.spec = spec;
    links_.push_back(std::move(link));
  }
  events_.reserve(256);
}

PacketNetwork::PacketNetwork(const LinkParams& params, uint64_t seed)
    : PacketNetwork(NetworkTopology::SingleBottleneck(params), seed) {}

int PacketNetwork::AddFlow(std::unique_ptr<CongestionControl> cc, FlowOptions options) {
  assert(cc != nullptr);
  flows_.emplace_back();
  Flow& flow = flows_.back();
  flow.cc = std::move(cc);
  flow.mode = flow.cc->Mode();
  flow.record.keep_delivery_times = options.keep_delivery_times;
  // Compile the path vectors into fixed arrays (empty forward path = link 0).
  // Invalid specifications are clamped in release builds too — a malformed
  // TopologySpec must degrade to a shorter/rerouted path, never to an
  // out-of-bounds write or a garbage link index (the asserts still name the
  // bug in debug builds).
  auto compile_path = [this](const std::vector<int>& source,
                             std::array<uint8_t, kMaxPathHops>* dest) {
    assert(source.size() <= static_cast<size_t>(kMaxPathHops));
    const size_t count = std::min(source.size(), static_cast<size_t>(kMaxPathHops));
    for (size_t i = 0; i < count; ++i) {
      assert(source[i] >= 0 && source[i] < static_cast<int>(links_.size()));
      const int link_id =
          std::clamp(source[i], 0, static_cast<int>(links_.size()) - 1);
      (*dest)[i] = static_cast<uint8_t>(link_id);
    }
    return static_cast<uint8_t>(count);
  };
  if (options.path.empty()) {
    flow.path[0] = 0;
    flow.path_len = 1;
  } else {
    flow.path_len = compile_path(options.path, &flow.path);
  }
  flow.ack_path_len = compile_path(options.ack_path, &flow.ack_path);
  // The uncongested reverse path mirrors the forward propagation delays; the
  // flow's base RTT is propagation both ways (per-flow extra delay excluded,
  // matching the historical dumbbell arithmetic bit for bit).
  double forward_delay = 0.0;
  for (int i = 0; i < flow.path_len; ++i) {
    forward_delay += links_[flow.path[i]].spec.prop_delay_s;
  }
  flow.reverse_delay_s = forward_delay;
  flow.base_rtt_s = 2.0 * forward_delay;
  flow.defer_acks = flow.ack_path_len == 0 && !flow.cc->NeedsPerAckEvents();
  flow.options = std::move(options);

  const int id = static_cast<int>(flows_.size()) - 1;
  [[maybe_unused]] const EventQueue::LaneId first_lane = events_.AddLanes(kLanesPerFlow);
  assert(first_lane == kLanesPerFlow * static_cast<uint32_t>(id));
  Schedule(flow.options.start_time_s, EvType::kFlowStart, id);
  if (std::isfinite(flow.options.stop_time_s)) {
    Schedule(flow.options.stop_time_s, EvType::kFlowStop, id);
  }
  return id;
}

void PacketNetwork::Run(double until_s) {
  while (!events_.empty() && events_.top_time() <= until_s) {
    const SimEvent ev = events_.pop();
    now_s_ = ev.time_s;
    Dispatch(ev);
  }
  now_s_ = std::max(now_s_, until_s);
  // Coalesced ACKs due within the horizon but after their flow's last event.
  DrainAllPendingAcks(until_s);
}

void PacketNetwork::RunUntil(const std::function<bool()>& stop, double max_time_s) {
  int check_countdown = 0;
  while (!events_.empty() && events_.top_time() <= max_time_s) {
    if (check_countdown-- <= 0) {
      DrainAllPendingAcks(now_s_);  // stop predicates often inspect flow records
      if (stop()) {
        return;
      }
      check_countdown = kStopCheckEvents;
    }
    const SimEvent ev = events_.pop();
    now_s_ = ev.time_s;
    Dispatch(ev);
  }
  // Every per-ACK event with time <= max_time_s would have been dispatched by
  // the loop above; coalesced ACK arrivals within the horizon must be applied
  // too before the caller inspects the flow records.
  DrainAllPendingAcks(max_time_s);
}

void PacketNetwork::PauseFlow(int flow_id) {
  flows_[static_cast<size_t>(flow_id)].paused = true;
}

void PacketNetwork::ResumeFlow(int flow_id) {
  Flow& flow = flows_[static_cast<size_t>(flow_id)];
  const bool was_paused = flow.paused;
  flow.paused = false;
  if (!was_paused || !flow.active) {
    return;
  }
  if (flow.mode == CcMode::kRateBased) {
    if (!flow.pace_scheduled) {
      flow.pace_scheduled = true;
      Schedule(now_s_, EvType::kPacedSend, flow_id);
    }
  } else {
    TrySendWindowed(flow_id, now_s_);
  }
}

int PacketNetwork::QueueLengthPkts(int link_id) const {
  const LinkState& link = links_[static_cast<size_t>(link_id)];
  return static_cast<int>(link.queue.size()) + (link.busy ? 1 : 0);
}

void PacketNetwork::Schedule(double time_s, EvType type, int flow_id, int64_t seq,
                             double send_time_s, uint8_t hop, uint8_t is_ack,
                             uint8_t ecn) {
  SimEvent ev;
  ev.time_s = time_s;
  ev.order = next_order_++;
  ev.send_time_s = send_time_s;
  ev.seq = seq;
  ev.flow_id = flow_id;
  ev.type = static_cast<uint8_t>(type);
  ev.hop = hop;
  ev.is_ack = is_ack;
  ev.ecn = ecn;
  switch (type) {
    case EvType::kAck:
      events_.push(ev, kLanesPerFlow * static_cast<uint32_t>(flow_id));
      return;
    case EvType::kLossNotice:
      events_.push(ev, kLanesPerFlow * static_cast<uint32_t>(flow_id) + 1);
      return;
    default:
      events_.push(ev);
      return;
  }
}

void PacketNetwork::ScheduleLoss(int flow_id, int64_t seq, double send_time_s,
                                 double now_s) {
  Flow& flow = flows_[static_cast<size_t>(flow_id)];
  // The detection delay reads the flow's srtt_s, so a deferred flow's ACKs up
  // to now must be applied first. A drop can run inside another flow's event
  // (CoDel drops at dequeue, in whichever flow's kLinkDone started service),
  // where Dispatch has not drained the dropped flow.
  if (flow.defer_acks && !flow.pending_acks.empty()) {
    DrainPendingAcks(&flow, now_s);
  }
  Schedule(now_s + LossDetectionDelay(flow), EvType::kLossNotice, flow_id, seq,
           send_time_s);
}

void PacketNetwork::Dispatch(const SimEvent& ev) {
  Flow& target = flows_[static_cast<size_t>(ev.flow_id)];
  if (target.defer_acks && !target.pending_acks.empty()) {
    DrainPendingAcks(&target, now_s_);
  }
  switch (static_cast<EvType>(ev.type)) {
    case EvType::kFlowStart:
      HandleFlowStart(ev);
      return;
    case EvType::kFlowStop:
      flows_[static_cast<size_t>(ev.flow_id)].active = false;
      return;
    case EvType::kPacedSend:
      HandlePacedSend(ev);
      return;
    case EvType::kLinkDone:
      HandleLinkDone(ev);
      return;
    case EvType::kHopArrive:
      HandleHopArrive(ev);
      return;
    case EvType::kAck:
      HandleAck(ev);
      return;
    case EvType::kLossNotice:
      HandleLossNotice(ev);
      return;
    case EvType::kMonitor:
      HandleMonitor(ev);
      return;
    case EvType::kRtoCheck:
      HandleRtoCheck(ev);
      return;
  }
}

void PacketNetwork::HandleFlowStart(const SimEvent& ev) {
  Flow& flow = flows_[static_cast<size_t>(ev.flow_id)];
  flow.started = true;
  flow.active = true;
  flow.last_progress_s = now_s_;
  flow.mi_start_s = now_s_;
  flow.cc->OnFlowStart(now_s_);
  if (flow.mode == CcMode::kRateBased) {
    flow.pace_scheduled = true;
    Schedule(now_s_, EvType::kPacedSend, ev.flow_id);
  } else {
    TrySendWindowed(ev.flow_id, now_s_);
  }
  Schedule(now_s_ + MiDuration(flow), EvType::kMonitor, ev.flow_id);
  Schedule(now_s_ + kRtoCheckPeriodS, EvType::kRtoCheck, ev.flow_id);
}

bool PacketNetwork::FlowMaySend(const Flow& flow) const {
  return flow.active && !flow.paused;
}

void PacketNetwork::HandlePacedSend(const SimEvent& ev) {
  Flow& flow = flows_[static_cast<size_t>(ev.flow_id)];
  if (!flow.active || flow.paused) {
    flow.pace_scheduled = false;
    return;
  }
  double rate = flow.cc->PacingRateBps();
  if (rate <= 0.0) {
    rate = flow.options.initial_rate_bps;
  }
  rate = std::max(rate, kMinPacingRateBps);
  const double cwnd_cap = flow.cc->CwndPackets();
  if (static_cast<double>(flow.inflight) < cwnd_cap && flow.inflight < kMaxInflightPkts) {
    SendPacket(ev.flow_id, now_s_);
  }
  // Small pacing jitter prevents unrealistic phase locking between identical flows.
  const double interval = static_cast<double>(kDefaultPacketSizeBits) / rate *
                          rng_.Uniform(0.98, 1.02);
  Schedule(now_s_ + interval, EvType::kPacedSend, ev.flow_id);
}

void PacketNetwork::SendPacket(int flow_id, double now_s) {
  Flow& flow = flows_[static_cast<size_t>(flow_id)];
  const int64_t seq = flow.next_seq++;
  ++flow.inflight;
  ++flow.mi_sent;
  ++flow.record.total_sent;
  if (flow.record.first_send_time_s < 0.0) {
    flow.record.first_send_time_s = now_s;
  }
  // Random (non-congestion) wire loss at the first link, plus any injected fault
  // window. With no fault configured the historical code path (and its Rng draw
  // sequence) is untouched, keeping clean episodes bit-identical.
  const LinkSpec& first = links_[flow.path[0]].spec;
  if (first.fault.empty()) {
    if (first.random_loss_rate > 0.0 && rng_.Bernoulli(first.random_loss_rate)) {
      Schedule(now_s + LossDetectionDelay(flow), EvType::kLossNotice, flow_id, seq, now_s);
      return;
    }
  } else {
    if (first.fault.BlackoutAt(now_s)) {
      Schedule(now_s + LossDetectionDelay(flow), EvType::kLossNotice, flow_id, seq, now_s);
      return;
    }
    const double loss_rate =
        std::max(first.random_loss_rate, first.fault.BurstLossRateAt(now_s));
    if (loss_rate > 0.0 && rng_.Bernoulli(loss_rate)) {
      Schedule(now_s + LossDetectionDelay(flow), EvType::kLossNotice, flow_id, seq, now_s);
      return;
    }
  }
  QueuedPacket pkt;
  pkt.send_time_s = now_s;
  pkt.enqueue_time_s = now_s;
  pkt.seq = seq;
  pkt.flow_id = flow_id;
  pkt.hop = 0;
  pkt.is_ack = 0;
  pkt.ecn = 0;
  EnqueueOnLink(flow.path[0], pkt, now_s);
}

void PacketNetwork::EnqueueOnLink(int link_id, const QueuedPacket& pkt, double now_s) {
  LinkState& link = links_[static_cast<size_t>(link_id)];
  // Droptail: the buffer holds packets waiting behind the one in service. ACKs
  // are always admitted (per-packet ACKs must not leak in-flight accounting; a
  // loaded reverse path delays them, which is the effect under study).
  if (pkt.is_ack == 0 && link.busy &&
      static_cast<int>(link.queue.size()) >= link.spec.queue_capacity_pkts) {
    ScheduleLoss(pkt.flow_id, pkt.seq, pkt.send_time_s, now_s);
    return;
  }
  QueuedPacket entry = pkt;
  entry.enqueue_time_s = now_s;
  // RED acts at enqueue on data packets: early-drop (or ECN-mark) with a
  // probability driven by the EWMA queue depth. Droptail links (the default)
  // skip this branch entirely and consume no Rng draws.
  if (entry.is_ack == 0 && link.spec.aqm.kind == AqmKind::kRed) {
    const bool ect = flows_[static_cast<size_t>(entry.flow_id)].options.ecn_capable;
    const AqmAction action =
        RedOnEnqueue(link.spec.aqm, &link.aqm, QueueLengthPkts(link_id), ect, &rng_);
    if (action == AqmAction::kDrop) {
      ScheduleLoss(entry.flow_id, entry.seq, entry.send_time_s, now_s);
      return;
    }
    if (action == AqmAction::kMark) {
      entry.ecn = 1;
    }
  }
  link.queue.push_back(entry);
  if (!link.busy) {
    StartService(link_id, now_s);
  }
}

void PacketNetwork::StartService(int link_id, double now_s) {
  LinkState& link = links_[static_cast<size_t>(link_id)];
  assert(!link.queue.empty());
  QueuedPacket pkt = link.queue.front();
  link.queue.pop_front();
  // CoDel acts at dequeue on data packets, on the sojourn time the head packet
  // spent queued: in the dropping state it drops (or ECN-marks) heads at
  // control-law-spaced times until the sojourn falls below target. Fully
  // deterministic — no Rng draws, so disabled links are untouched.
  if (link.spec.aqm.kind == AqmKind::kCodel) {
    while (pkt.is_ack == 0) {
      const bool ect = flows_[static_cast<size_t>(pkt.flow_id)].options.ecn_capable;
      const AqmAction action = CodelOnDequeue(
          link.spec.aqm, &link.aqm, now_s, now_s - pkt.enqueue_time_s,
          static_cast<int>(link.queue.size()) + 1, ect);
      if (action == AqmAction::kMark) {
        pkt.ecn = 1;
        break;
      }
      if (action == AqmAction::kForward) {
        break;
      }
      ScheduleLoss(pkt.flow_id, pkt.seq, pkt.send_time_s, now_s);
      if (link.queue.empty()) {
        link.busy = false;
        return;
      }
      pkt = link.queue.front();
      link.queue.pop_front();
    }
  }
  link.busy = true;
  const double bw = std::max(1.0, link.spec.BandwidthAt(now_s));
  const int64_t bits = pkt.is_ack != 0 ? kAckPacketSizeBits : kDefaultPacketSizeBits;
  double txn_s = static_cast<double>(bits) / bw;
  // Wifi jitter stretches serialization inside burst windows; the per-packet
  // draw happens only for packets serviced inside a configured window.
  const WifiJitterSpec& jitter = link.spec.wifi_jitter;
  if (!jitter.empty() && jitter.BurstAt(now_s)) {
    txn_s *= jitter.service_slowdown *
             rng_.Uniform(1.0 - jitter.jitter_frac, 1.0 + jitter.jitter_frac);
  }
  Schedule(now_s + txn_s, EvType::kLinkDone, pkt.flow_id, pkt.seq, pkt.send_time_s,
           pkt.hop, pkt.is_ack, pkt.ecn);
}

void PacketNetwork::HandleLinkDone(const SimEvent& ev) {
  Flow& flow = flows_[static_cast<size_t>(ev.flow_id)];
  const int link_id = ev.is_ack != 0 ? flow.ack_path[ev.hop] : flow.path[ev.hop];
  const LinkSpec& spec = links_[static_cast<size_t>(link_id)].spec;
  // Injected delay spikes stretch this link's propagation for packets finishing
  // serialization inside the window; a fault-free link adds exactly 0.0, keeping
  // the historical delivery-time arithmetic bit-identical.
  const double prop_delay_s =
      spec.fault.empty() ? spec.prop_delay_s
                         : spec.prop_delay_s + spec.fault.ExtraDelayAt(now_s_);
  if (ev.is_ack == 0) {
    if (ev.hop + 1 < flow.path_len) {
      // Mid-path: propagate to the next hop's queue.
      Schedule(now_s_ + prop_delay_s, EvType::kHopArrive, ev.flow_id, ev.seq,
               ev.send_time_s, static_cast<uint8_t>(ev.hop + 1), 0, ev.ecn);
    } else {
      // Last hop: the packet is delivered after this link's propagation (plus
      // the flow's extra endpoint delay), and the ACK departs immediately.
      // Uncongested reverse paths coalesce delivery + ACK into one event; the
      // delivery time and the ACK arrival time are computed in exactly the
      // floating-point evaluation order of the historical two-event engine
      // ((t + delay) + extra at each stage), keeping single-bottleneck episodes
      // bit-identical (tests/golden_episode_test.cc).
      const double t_delivery =
          now_s_ + prop_delay_s + flow.options.extra_one_way_delay_s;
      flow.record.RecordDelivery(t_delivery);
      if (flow.ack_path_len == 0) {
        const double t_ack =
            t_delivery + flow.reverse_delay_s + flow.options.extra_one_way_delay_s;
        // A deferred ACK joins the ring only in time order; one that arrives
        // before the ring's tail is scheduled as an event.
        if (flow.defer_acks && (flow.pending_acks.empty() ||
                                t_ack >= flow.pending_acks.back().ack_time_s)) {
          PendingAck pending;
          pending.ack_time_s = t_ack;
          pending.send_time_s = ev.send_time_s;
          pending.seq = ev.seq;
          pending.ecn = ev.ecn;
          flow.pending_acks.push_back(pending);
        } else {
          Schedule(t_ack, EvType::kAck, ev.flow_id, ev.seq, ev.send_time_s, 0, 0,
                   ev.ecn);
        }
      } else {
        // The ACK echoes the data packet's congestion mark back to the sender
        // through the reverse path (the ACK itself is never AQM-processed).
        Schedule(t_delivery, EvType::kHopArrive, ev.flow_id, ev.seq, ev.send_time_s,
                 0, 1, ev.ecn);
      }
    }
  } else {
    if (ev.hop + 1 < flow.ack_path_len) {
      Schedule(now_s_ + prop_delay_s, EvType::kHopArrive, ev.flow_id, ev.seq,
               ev.send_time_s, static_cast<uint8_t>(ev.hop + 1), 1, ev.ecn);
    } else {
      Schedule(now_s_ + prop_delay_s + flow.options.extra_one_way_delay_s,
               EvType::kAck, ev.flow_id, ev.seq, ev.send_time_s, 0, 0, ev.ecn);
    }
  }
  LinkState& link = links_[static_cast<size_t>(link_id)];
  if (!link.queue.empty()) {
    StartService(link_id, now_s_);
  } else {
    link.busy = false;
  }
}

void PacketNetwork::HandleHopArrive(const SimEvent& ev) {
  Flow& flow = flows_[static_cast<size_t>(ev.flow_id)];
  const int link_id = ev.is_ack != 0 ? flow.ack_path[ev.hop] : flow.path[ev.hop];
  // Random wire loss applies per traversed link for data packets (hop 0 is
  // checked at send time); ACKs are exempt. Fault windows (blackouts, loss
  // bursts) apply the same way, with the fault-free path left byte-identical.
  if (ev.is_ack == 0) {
    const LinkSpec& spec = links_[static_cast<size_t>(link_id)].spec;
    if (spec.fault.empty()) {
      if (spec.random_loss_rate > 0.0 && rng_.Bernoulli(spec.random_loss_rate)) {
        Schedule(now_s_ + LossDetectionDelay(flow), EvType::kLossNotice, ev.flow_id,
                 ev.seq, ev.send_time_s);
        return;
      }
    } else {
      if (spec.fault.BlackoutAt(now_s_)) {
        Schedule(now_s_ + LossDetectionDelay(flow), EvType::kLossNotice, ev.flow_id,
                 ev.seq, ev.send_time_s);
        return;
      }
      const double loss_rate =
          std::max(spec.random_loss_rate, spec.fault.BurstLossRateAt(now_s_));
      if (loss_rate > 0.0 && rng_.Bernoulli(loss_rate)) {
        Schedule(now_s_ + LossDetectionDelay(flow), EvType::kLossNotice, ev.flow_id,
                 ev.seq, ev.send_time_s);
        return;
      }
    }
  }
  QueuedPacket pkt;
  pkt.send_time_s = ev.send_time_s;
  pkt.enqueue_time_s = now_s_;
  pkt.seq = ev.seq;
  pkt.flow_id = ev.flow_id;
  pkt.hop = ev.hop;
  pkt.is_ack = ev.is_ack;
  pkt.ecn = ev.ecn;
  EnqueueOnLink(link_id, pkt, now_s_);
}

void PacketNetwork::ProcessAck(Flow* flow, double ack_time_s, double send_time_s,
                               int64_t seq, bool ecn_marked) {
  flow->inflight = std::max<int64_t>(0, flow->inflight - 1);
  const double rtt = ack_time_s - send_time_s;
  flow->srtt_s = flow->srtt_s <= 0.0 ? rtt : 0.875 * flow->srtt_s + 0.125 * rtt;
  flow->min_rtt_s = flow->min_rtt_s <= 0.0 ? rtt : std::min(flow->min_rtt_s, rtt);
  flow->record.min_rtt_s = flow->min_rtt_s;
  flow->last_progress_s = ack_time_s;
  ++flow->record.total_acked;
  ++flow->mi_acked;
  flow->mi_rtt_sum_s += rtt;
  ++flow->mi_rtt_count;
  if (ecn_marked) {
    ++flow->mi_marked;
    ++flow->record.total_marked;
  }
  flow->record.RecordAck(ack_time_s);
  AckInfo ack;
  ack.send_time_s = send_time_s;
  ack.ack_time_s = ack_time_s;
  ack.rtt_s = rtt;
  ack.size_bits = kDefaultPacketSizeBits;
  ack.seq = seq;
  ack.ecn_marked = ecn_marked;
  flow->cc->OnAck(ack);
}

void PacketNetwork::DrainPendingAcks(Flow* flow, double up_to_s) {
  while (!flow->pending_acks.empty() &&
         flow->pending_acks.front().ack_time_s <= up_to_s) {
    const PendingAck pending = flow->pending_acks.front();
    flow->pending_acks.pop_front();
    ProcessAck(flow, pending.ack_time_s, pending.send_time_s, pending.seq,
               pending.ecn != 0);
  }
}

void PacketNetwork::DrainAllPendingAcks(double up_to_s) {
  for (Flow& flow : flows_) {
    if (flow.defer_acks && !flow.pending_acks.empty()) {
      DrainPendingAcks(&flow, up_to_s);
    }
  }
}

void PacketNetwork::HandleAck(const SimEvent& ev) {
  Flow& flow = flows_[static_cast<size_t>(ev.flow_id)];
  ProcessAck(&flow, now_s_, ev.send_time_s, ev.seq, ev.ecn != 0);
  if (flow.mode == CcMode::kWindowBased && FlowMaySend(flow)) {
    TrySendWindowed(ev.flow_id, now_s_);
  }
}

void PacketNetwork::HandleLossNotice(const SimEvent& ev) {
  Flow& flow = flows_[static_cast<size_t>(ev.flow_id)];
  flow.inflight = std::max<int64_t>(0, flow.inflight - 1);
  ++flow.record.total_lost;
  ++flow.mi_lost;
  LossInfo loss;
  loss.detect_time_s = now_s_;
  loss.seq = ev.seq;
  flow.cc->OnPacketLost(loss);
  if (flow.mode == CcMode::kWindowBased && FlowMaySend(flow)) {
    TrySendWindowed(ev.flow_id, now_s_);
  }
}

void PacketNetwork::TrySendWindowed(int flow_id, double now_s) {
  Flow& flow = flows_[static_cast<size_t>(flow_id)];
  // Cap the burst so a pathological window cannot wedge the event loop.
  int budget = 10000;
  while (FlowMaySend(flow) &&
         static_cast<double>(flow.inflight) < std::max(1.0, flow.cc->CwndPackets()) &&
         budget-- > 0) {
    SendPacket(flow_id, now_s);
  }
}

void PacketNetwork::HandleMonitor(const SimEvent& ev) {
  Flow& flow = flows_[static_cast<size_t>(ev.flow_id)];
  if (!flow.started) {
    return;
  }
  const double duration = now_s_ - flow.mi_start_s;
  if (duration > 0.0) {
    MonitorReport report;
    report.start_time_s = flow.mi_start_s;
    report.duration_s = duration;
    report.packets_sent = flow.mi_sent;
    report.packets_acked = flow.mi_acked;
    report.packets_lost = flow.mi_lost;
    report.send_rate_bps =
        static_cast<double>(flow.mi_sent * kDefaultPacketSizeBits) / duration;
    report.throughput_bps =
        static_cast<double>(flow.mi_acked * kDefaultPacketSizeBits) / duration;
    report.avg_rtt_s =
        flow.mi_rtt_count > 0 ? flow.mi_rtt_sum_s / static_cast<double>(flow.mi_rtt_count)
                              : flow.srtt_s;
    report.min_rtt_s = flow.min_rtt_s > 0.0 ? flow.min_rtt_s : flow.base_rtt_s;
    const int64_t denom = flow.mi_acked + flow.mi_lost;
    report.loss_rate =
        denom > 0 ? static_cast<double>(flow.mi_lost) / static_cast<double>(denom) : 0.0;
    report.packets_marked = flow.mi_marked;
    report.ecn_rate = flow.mi_acked > 0 ? static_cast<double>(flow.mi_marked) /
                                              static_cast<double>(flow.mi_acked)
                                        : 0.0;
    flow.cc->OnMonitorInterval(report);
    flow.record.RecordMi(report);
  }
  flow.mi_start_s = now_s_;
  flow.mi_sent = 0;
  flow.mi_acked = 0;
  flow.mi_lost = 0;
  flow.mi_rtt_sum_s = 0.0;
  flow.mi_rtt_count = 0;
  flow.mi_marked = 0;
  if (flow.active) {
    Schedule(now_s_ + MiDuration(flow), EvType::kMonitor, ev.flow_id);
  }
}

void PacketNetwork::HandleRtoCheck(const SimEvent& ev) {
  Flow& flow = flows_[static_cast<size_t>(ev.flow_id)];
  if (!flow.active) {
    return;
  }
  const double rto = std::max(1.0, 3.0 * std::max(flow.srtt_s, flow.base_rtt_s));
  if (flow.inflight > 0 && now_s_ - flow.last_progress_s > rto) {
    // Everything in flight is presumed lost; restart the window from scratch.
    flow.record.total_lost += flow.inflight;
    flow.inflight = 0;
    flow.last_progress_s = now_s_;
    flow.cc->OnTimeout(now_s_);
    if (flow.mode == CcMode::kWindowBased && FlowMaySend(flow)) {
      TrySendWindowed(ev.flow_id, now_s_);
    }
  }
  Schedule(now_s_ + kRtoCheckPeriodS, EvType::kRtoCheck, ev.flow_id);
}

double PacketNetwork::MiDuration(const Flow& flow) const {
  if (flow.options.mi_fixed_duration_s > 0.0) {
    return flow.options.mi_fixed_duration_s;
  }
  const double rtt = flow.srtt_s > 0.0 ? flow.srtt_s : flow.base_rtt_s;
  return std::max(flow.options.mi_min_duration_s, flow.options.mi_rtt_multiple * rtt);
}

double PacketNetwork::LossDetectionDelay(const Flow& flow) const {
  return std::max(flow.srtt_s, flow.base_rtt_s);
}

}  // namespace mocc
