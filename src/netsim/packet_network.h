// Event-driven packet-level simulator over an arbitrary topology of droptail
// links. Each registered flow follows a path of one or more links (the classic
// dumbbell — N senders sharing one bottleneck — is the one-link instance);
// packets are individually queued, serialized at link rate, delayed by
// propagation, and acknowledged either on an uncongested reverse path (pure
// delay, the dumbbell default) or through reverse-path links whose queues the
// ACKs share with reverse-direction data traffic. Losses (droptail overflow or
// random wire loss) are reported to the sender after a detection delay of
// roughly one RTT, emulating duplicate-ACK detection.
//
// This is the evaluation substrate standing in for the paper's Pantheon/Mahimahi
// emulation and real Internet paths: utilization/latency sweeps (Figure 5),
// fairness dynamics (Figures 11-12), friendliness (Figures 13-15) and the
// application workloads (Figures 8-10) all run on it, as do the multi-flow
// training scenarios (shared bottleneck, parking-lot, congested reverse path,
// heterogeneous RTT).
//
// The event core is the pooled 4-ary heap + ring-buffer engine of
// src/netsim/event_engine.h: ACKs on an uncongested reverse path are coalesced
// into a single event (delivery bookkeeping happens when the packet leaves its
// last link, with the delivery timestamp computed in the same floating-point
// order as the historical two-event form, so single-bottleneck episodes are
// bit-identical to the pre-refactor engine — tests/golden_episode_test.cc holds
// the committed proof traces), droptail admission is O(1) against the ring
// occupancy, and flows live in one contiguous vector. Each flow owns two event
// lanes, one for its ACK arrivals and one for its loss notices: these per-flow
// streams are scheduled almost always in time order, so they wait in their
// lanes and only each lane's head sits in the heap (an arrival that would
// break a lane's order — a delay spike ending, a shrinking srtt — goes to the
// heap on its own). The dispatch sequence is the same (time, order) sequence
// either way.
#ifndef MOCC_SRC_NETSIM_PACKET_NETWORK_H_
#define MOCC_SRC_NETSIM_PACKET_NETWORK_H_

#include <array>
#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include "src/common/rng.h"
#include "src/netsim/cc_interface.h"
#include "src/netsim/event_engine.h"
#include "src/netsim/flow_record.h"
#include "src/netsim/link_params.h"
#include "src/netsim/topology.h"

namespace mocc {

// Per-flow behaviour knobs.
struct FlowOptions {
  double start_time_s = 0.0;
  double stop_time_s = std::numeric_limits<double>::infinity();
  // Monitor-interval sizing: fixed duration wins if > 0, otherwise
  // max(mi_min_duration_s, mi_rtt_multiple * srtt).
  double mi_fixed_duration_s = 0.0;
  double mi_rtt_multiple = 1.0;
  double mi_min_duration_s = 0.010;
  // Fallback pacing rate when a rate-based scheme reports a non-positive rate.
  double initial_rate_bps = 1e6;
  // Additional one-way propagation delay for this flow only (both directions), for
  // heterogeneous-RTT experiments on a shared bottleneck.
  double extra_one_way_delay_s = 0.0;
  // Record per-packet delivery timestamps (needed for inter-packet delay analysis).
  bool keep_delivery_times = false;
  // ECN-capable (ECT) flow: AQM bottlenecks with ecn enabled mark this flow's
  // packets instead of dropping them; the marks come back on the ACKs
  // (AckInfo::ecn_marked, MonitorReport::packets_marked).
  bool ecn_capable = false;
  // Forward path as link indices into the topology; empty means {0} (the
  // dumbbell bottleneck). At most kMaxPathHops entries.
  std::vector<int> path;
  // Reverse path the ACKs queue through; empty means the uncongested pure-delay
  // reverse path (one forward-path propagation delay, no queueing).
  std::vector<int> ack_path;
};

class PacketNetwork {
 public:
  // Longest supported link path per direction (shared with the topology
  // builders, which clamp to it).
  static constexpr int kMaxPathHops = mocc::kMaxPathHops;

  // Dumbbell convenience: one bottleneck link described by `params`.
  PacketNetwork(const LinkParams& params, uint64_t seed);
  // General form: any set of links; flows pick their paths via FlowOptions.
  PacketNetwork(const NetworkTopology& topology, uint64_t seed);

  PacketNetwork(const PacketNetwork&) = delete;
  PacketNetwork& operator=(const PacketNetwork&) = delete;

  // Installs a piecewise-constant bandwidth schedule on the bottleneck (link 0).
  void SetBandwidthTrace(BandwidthTrace trace) {
    links_[0].spec.trace = std::move(trace);
  }

  // Registers a flow driven by `cc`. Returns the flow id. Must be called before Run.
  int AddFlow(std::unique_ptr<CongestionControl> cc, FlowOptions options = {});

  // Runs the simulation until the clock reaches `until_s`.
  void Run(double until_s);

  // Runs until `stop()` returns true or the clock reaches `max_time_s`.
  //
  // Polling contract: the predicate may be arbitrarily expensive (it typically
  // inspects flow records), so it is NOT evaluated per event — it is checked
  // once on entry and then once every kStopCheckEvents dispatched events. The
  // simulation may therefore overshoot the stop condition by up to
  // kStopCheckEvents events (bounded extra work, no extra heap churn); callers
  // that need an exact cut should test `stop` state themselves after return.
  // On return now_s() is the time of the last dispatched event (the clock is
  // not advanced to max_time_s when the predicate fires or events run out).
  void RunUntil(const std::function<bool()>& stop, double max_time_s);

  // How many events RunUntil dispatches between stop-predicate evaluations.
  static constexpr int kStopCheckEvents = 64;

  // Application control: a paused flow stops transmitting new packets but keeps
  // receiving ACKs (used by the chunked-video workload between downloads).
  void PauseFlow(int flow_id);
  void ResumeFlow(int flow_id);

  double now_s() const { return now_s_; }
  // Effective bottleneck bandwidth at the current clock, honouring the trace.
  double CurrentBandwidthBps() const { return links_[0].spec.BandwidthAt(now_s_); }
  size_t flow_count() const { return flows_.size(); }
  size_t link_count() const { return links_.size(); }
  const FlowRecord& record(int flow_id) const {
    return flows_[static_cast<size_t>(flow_id)].record;
  }
  CongestionControl& cc(int flow_id) {
    return *flows_[static_cast<size_t>(flow_id)].cc;
  }

  // Instantaneous backlog in packets (waiting + in service) at `link_id`.
  int QueueLengthPkts(int link_id = 0) const;

 private:
  enum class EvType : uint8_t {
    kFlowStart,
    kFlowStop,
    kPacedSend,
    kLinkDone,
    kHopArrive,
    kAck,
    kLossNotice,
    kMonitor,
    kRtoCheck,
  };

  struct QueuedPacket {
    double send_time_s;
    double enqueue_time_s;  // arrival at this link's queue (CoDel sojourn base)
    int64_t seq;
    int32_t flow_id;
    uint8_t hop;
    uint8_t is_ack;
    uint8_t ecn;  // 1 once an AQM bottleneck has marked the packet
  };

  // A coalesced ACK arrival awaiting lazy application (defer_acks flows).
  struct PendingAck {
    double ack_time_s;
    double send_time_s;
    int64_t seq;
    uint8_t ecn;
  };

  struct LinkState {
    LinkSpec spec;
    RingBuffer<QueuedPacket> queue;
    AqmState aqm;
    bool busy = false;
  };

  struct Flow {
    std::unique_ptr<CongestionControl> cc;
    FlowOptions options;
    FlowRecord record;
    bool started = false;
    bool active = false;
    bool paused = false;
    bool pace_scheduled = false;
    // Compiled path (link indices) and derived delays.
    std::array<uint8_t, kMaxPathHops> path{};
    std::array<uint8_t, kMaxPathHops> ack_path{};
    uint8_t path_len = 1;
    uint8_t ack_path_len = 0;
    // CongestionControl::Mode() is constant per scheme; cached here so the
    // per-ACK/per-send hot paths skip the virtual call.
    CcMode mode = CcMode::kRateBased;
    // True when the scheme opted out of per-ACK events (NeedsPerAckEvents()
    // false) and the reverse path is pure delay: ACK arrivals then queue in
    // pending_acks and are applied at the flow's next event instead of through
    // the heap. The ring stays time-sorted because an arrival earlier than its
    // tail (a delay spike ending reorders a FIFO path's arrivals) is scheduled
    // as a kAck event instead.
    bool defer_acks = false;
    RingBuffer<PendingAck> pending_acks;
    double reverse_delay_s = 0.0;  // pure-delay reverse path (one-way)
    double base_rtt_s = 0.0;       // 2 x sum of forward propagation delays
    int64_t next_seq = 0;
    int64_t inflight = 0;
    double srtt_s = 0.0;
    double min_rtt_s = 0.0;
    double last_progress_s = 0.0;
    // Monitor-interval counters.
    double mi_start_s = 0.0;
    int64_t mi_sent = 0;
    int64_t mi_acked = 0;
    int64_t mi_lost = 0;
    double mi_rtt_sum_s = 0.0;
    int64_t mi_rtt_count = 0;
    int64_t mi_marked = 0;
  };

  // Event lanes per flow: kAck events go to lane kLanesPerFlow * flow_id,
  // kLossNotice events to the next one; every other event is standalone.
  static constexpr uint32_t kLanesPerFlow = 2;

  void Schedule(double time_s, EvType type, int flow_id, int64_t seq = 0,
                double send_time_s = 0.0, uint8_t hop = 0, uint8_t is_ack = 0,
                uint8_t ecn = 0);
  void Dispatch(const SimEvent& ev);

  void HandleFlowStart(const SimEvent& ev);
  void HandlePacedSend(const SimEvent& ev);
  void HandleLinkDone(const SimEvent& ev);
  void HandleHopArrive(const SimEvent& ev);
  void HandleAck(const SimEvent& ev);
  void HandleLossNotice(const SimEvent& ev);
  void HandleMonitor(const SimEvent& ev);
  void HandleRtoCheck(const SimEvent& ev);

  // Applies one ACK's bookkeeping (counters, RTT filters, record, OnAck) at
  // `ack_time_s` — shared by the per-event path and the lazy drain.
  void ProcessAck(Flow* flow, double ack_time_s, double send_time_s, int64_t seq,
                  bool ecn_marked);
  // Applies every pending coalesced ACK with arrival time <= up_to_s.
  void DrainPendingAcks(Flow* flow, double up_to_s);
  void DrainAllPendingAcks(double up_to_s);

  // Emits one packet from `flow_id` into its first path link at `now_s`.
  void SendPacket(int flow_id, double now_s);
  // Ack-clocked transmission for window-based flows.
  void TrySendWindowed(int flow_id, double now_s);
  // Admission of a (data or ACK) packet at `link_id`: droptail overflow first,
  // then the link's AQM discipline (RED acts here, at enqueue). Data packets
  // that are dropped become loss notices, ACKs are always admitted and never
  // AQM-processed.
  void EnqueueOnLink(int link_id, const QueuedPacket& pkt, double now_s);
  // Begins serializing the head-of-line packet. CoDel acts here (at dequeue,
  // on the packet's queue sojourn time); a configured wifi-jitter model
  // stretches the serialization time inside its burst windows.
  void StartService(int link_id, double now_s);
  // Shared loss-notice scheduling for every AQM/droptail/wire-loss drop.
  void ScheduleLoss(int flow_id, int64_t seq, double send_time_s, double now_s);

  double MiDuration(const Flow& flow) const;
  double LossDetectionDelay(const Flow& flow) const;
  bool FlowMaySend(const Flow& flow) const;

  Rng rng_;
  double now_s_ = 0.0;
  uint64_t next_order_ = 0;
  EventQueue events_;
  std::vector<Flow> flows_;
  std::vector<LinkState> links_;
};

}  // namespace mocc

#endif  // MOCC_SRC_NETSIM_PACKET_NETWORK_H_
