// Topology descriptions for the packet-level simulator. A NetworkTopology is a
// set of unidirectional droptail links; each flow follows a path of one or more
// of them (its data direction) and optionally a reverse path its ACKs must queue
// through. The classic single-bottleneck dumbbell is the trivial one-link
// instance; the builders below add the two canonical multi-link evaluation
// shapes plus the spec type the scenario catalog uses to name them:
//
//   dumbbell      S ──▶[ L0 ]──▶ R        (ACKs return on an uncongested path)
//
//   parking-lot   S ──▶[ L0 ]──▶[ L1 ]──▶[ L2 ]──▶ R
//                 (agents traverse every hop; cross-traffic flow i loads hop i,
//                  so end-to-end flows compete at several bottlenecks at once)
//
//   reverse-path  S ──▶[ L0 ]──▶ R       data direction
//                 S ◀──[ L1 ]◀── R       agents' ACKs share L1 with competitor
//                                        data flowing R→S, so ACKs queue behind
//                                        reverse-direction congestion
//
//   n-leaf        S0 ──▶[ A0 ]─┐              ┌─▶[ B0 ]──▶ R0
//   dumbbell      S1 ──▶[ A1 ]─┼─▶[ L0 ]──▶──┼─▶[ B1 ]──▶ R1   (ns-3's N-leaf
//                 ...          ┘              └  ...             dumbbell: flow i
//                 enters through its own leaf-in link A(i%P), crosses the shared
//                 bottleneck L0, and exits through leaf-out B(i%P); leaf links
//                 are scaled relative to the bottleneck, faster by default)
//
// TopologySpec is the catalog-facing description: enough to rebuild the episode
// topology from a sampled LinkParams, and to assign each agent/competitor flow
// its data and ACK paths. BuildEpisodeNetwork (src/envs/multi_flow_cc_env.h) is
// the one caller that turns a spec into an episode network, for both
// MultiFlowCcEnv and mocc_simulate.
#ifndef MOCC_SRC_NETSIM_TOPOLOGY_H_
#define MOCC_SRC_NETSIM_TOPOLOGY_H_

#include <vector>

#include "src/netsim/aqm.h"
#include "src/netsim/fault_spec.h"
#include "src/netsim/link_params.h"
#include "src/netsim/wifi_jitter.h"

namespace mocc {

// ACK packets on a congested reverse path serialize at this size (a 40-byte
// TCP ACK), so a loaded reverse link delays ACKs mostly by queueing, not by
// serialization of the ACKs themselves.
inline constexpr int64_t kAckPacketSizeBits = 40 * 8;

// Longest supported link path per direction (the simulator compiles paths into
// fixed per-flow arrays of this size; builders clamp to it).
inline constexpr int kMaxPathHops = 8;

// One unidirectional droptail link.
struct LinkSpec {
  double bandwidth_bps = 12e6;
  double prop_delay_s = 0.020;
  int queue_capacity_pkts = 1000;
  double random_loss_rate = 0.0;  // iid per-packet wire loss at this link
  BandwidthTrace trace;           // empty = constant at bandwidth_bps
  FaultSpec fault;                // empty = no injected faults
  AqmSpec aqm;                    // empty = historical droptail
  WifiJitterSpec wifi_jitter;     // empty = clean constant-rate serialization

  // Effective bandwidth at time t, honouring the trace.
  double BandwidthAt(double t) const { return trace.BandwidthAt(t, bandwidth_bps); }
};

struct NetworkTopology {
  std::vector<LinkSpec> links;

  // The dumbbell: one droptail bottleneck carrying every flow's data direction,
  // with the link's queue capacity taken verbatim (BuildTopology clamps it to at
  // least one packet).
  static NetworkTopology SingleBottleneck(const LinkParams& params);
};

// Multiplicative per-link overrides of the sampled base link, for asymmetric
// shapes. {1, 1, 1} reproduces the base link exactly (multiplying by 1.0 is
// bit-exact for the doubles, and the queue round-trips through llround).
struct LinkScale {
  double bandwidth = 1.0;
  double delay = 1.0;
  double queue = 1.0;
};

// One link of the base shape scaled per `scale`.
LinkSpec ScaledLink(const LinkParams& base, const LinkScale& scale);

// Catalog-facing topology naming (Scenario / MultiFlowCcEnvConfig).
enum class TopologyKind {
  kDumbbell,
  kParkingLot,
  kReversePath,
  kNLeafDumbbell,
};

struct TopologySpec {
  TopologyKind kind = TopologyKind::kDumbbell;
  int hops = 3;  // parking-lot path length
  // Per-link scales for the dumbbell (link 0), parking lot (hop i scaled by
  // link_scales[i % size]) and reverse path (forward 0, reverse 1). Empty =
  // every link replicates the base verbatim — the historical behaviour,
  // bit-identical.
  std::vector<LinkScale> link_scales;
  // kNLeafDumbbell: number of leaf-in/leaf-out pairs around the central
  // bottleneck (link 0, scaled by link_scales[0] when given). Leaf links are
  // scaled by leaf_scale — 4x the bandwidth and a quarter of the delay by
  // default, so the shared bottleneck stays the bottleneck.
  int leaf_pairs = 4;
  LinkScale leaf_scale{4.0, 0.25, 1.0};

  // True when some link can differ from the base link: per-agent path RTTs
  // must then be summed hop by hop instead of hops x the base link RTT.
  bool Heterogeneous() const {
    return kind == TopologyKind::kNLeafDumbbell || !link_scales.empty();
  }
};

// Per-flow path assignment derived from the spec.
struct FlowPathSpec {
  std::vector<int> path;      // forward (data) link ids
  std::vector<int> ack_path;  // reverse link ids; empty = uncongested pure delay
};

// Builds the episode topology from the sampled base link. Every link inherits
// the base link's bandwidth/delay/queue/loss, scaled by the spec's per-link
// overrides (none by default); the parking lot replicates it per hop, the
// reverse-path shape mirrors it into the opposite direction, and the N-leaf
// dumbbell lays out [bottleneck, leaf-in 1..P, leaf-out P+1..2P].
NetworkTopology BuildTopology(const TopologySpec& spec, const LinkParams& base);

// Agent flow placement. Dumbbell/parking-lot/reverse-path agents all share one
// path, so `agent_index` only matters for the N-leaf dumbbell: agent i takes
// {leaf-in i%P, bottleneck, leaf-out i%P}.
FlowPathSpec AgentPath(const TopologySpec& spec, int agent_index);

// Competitor placement: dumbbell competitors share the bottleneck; parking-lot
// competitor i is cross traffic on hop i (mod hops); reverse-path competitors
// send their data over the reverse link, loading the agents' ACK direction;
// N-leaf competitor i crosses end to end through leaf pair i (mod P), sharing
// those leaves with the same-index agents.
FlowPathSpec CompetitorPath(const TopologySpec& spec, int competitor_index);

// Propagation-only RTT of `path` over the built topology: 2x the sum of the
// forward hops' propagation delays (the uncongested reverse mirrors them).
// The per-agent reward reference on heterogeneous topologies, where
// hops x base-link RTT no longer holds.
double PathPropRttS(const NetworkTopology& topology, const std::vector<int>& path);

}  // namespace mocc

#endif  // MOCC_SRC_NETSIM_TOPOLOGY_H_
