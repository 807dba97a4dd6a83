#include "src/netsim/topology.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace mocc {
namespace {

LinkSpec FromParams(const LinkParams& params) {
  LinkSpec link;
  link.bandwidth_bps = params.bandwidth_bps;
  link.prop_delay_s = params.one_way_delay_s;
  link.queue_capacity_pkts = params.queue_capacity_pkts;
  link.random_loss_rate = params.random_loss_rate;
  return link;
}

// Scale for link `index` of a shape built from `spec`; identity when the spec
// carries no overrides (so the base link replicates verbatim, bit-identical to
// the historical builders).
LinkScale ScaleFor(const TopologySpec& spec, int index) {
  if (spec.link_scales.empty()) return LinkScale{};
  return spec.link_scales[static_cast<size_t>(index) % spec.link_scales.size()];
}

int ClampedLeafPairs(const TopologySpec& spec) {
  return std::max(1, spec.leaf_pairs);
}

}  // namespace

LinkSpec ScaledLink(const LinkParams& base, const LinkScale& scale) {
  LinkSpec link = FromParams(base);
  link.bandwidth_bps *= scale.bandwidth;
  link.prop_delay_s *= scale.delay;
  link.queue_capacity_pkts = std::max<int>(
      1, static_cast<int>(std::llround(link.queue_capacity_pkts * scale.queue)));
  return link;
}

NetworkTopology NetworkTopology::SingleBottleneck(const LinkParams& params) {
  NetworkTopology topology;
  topology.links.push_back(FromParams(params));
  return topology;
}

NetworkTopology BuildTopology(const TopologySpec& spec, const LinkParams& base) {
  NetworkTopology topology;
  switch (spec.kind) {
    case TopologyKind::kDumbbell:
      topology.links.push_back(ScaledLink(base, ScaleFor(spec, 0)));
      return topology;
    case TopologyKind::kParkingLot:
      for (int i = 0; i < std::clamp(spec.hops, 1, kMaxPathHops); ++i) {
        topology.links.push_back(ScaledLink(base, ScaleFor(spec, i)));
      }
      return topology;
    case TopologyKind::kReversePath:
      topology.links.push_back(ScaledLink(base, ScaleFor(spec, 0)));  // forward
      topology.links.push_back(ScaledLink(base, ScaleFor(spec, 1)));  // reverse
      return topology;
    case TopologyKind::kNLeafDumbbell: {
      const int pairs = ClampedLeafPairs(spec);
      topology.links.push_back(ScaledLink(base, ScaleFor(spec, 0)));  // bottleneck
      for (int i = 0; i < pairs; ++i) {  // leaf-in links 1..P
        topology.links.push_back(ScaledLink(base, spec.leaf_scale));
      }
      for (int i = 0; i < pairs; ++i) {  // leaf-out links P+1..2P
        topology.links.push_back(ScaledLink(base, spec.leaf_scale));
      }
      return topology;
    }
  }
  topology.links.push_back(ScaledLink(base, ScaleFor(spec, 0)));
  return topology;
}

FlowPathSpec AgentPath(const TopologySpec& spec, int agent_index) {
  FlowPathSpec paths;
  switch (spec.kind) {
    case TopologyKind::kDumbbell:
      paths.path = {0};
      break;
    case TopologyKind::kParkingLot:
      for (int i = 0; i < std::clamp(spec.hops, 1, kMaxPathHops); ++i) {
        paths.path.push_back(i);
      }
      break;
    case TopologyKind::kReversePath:
      paths.path = {0};
      paths.ack_path = {1};
      break;
    case TopologyKind::kNLeafDumbbell: {
      const int pairs = ClampedLeafPairs(spec);
      const int pair = ((agent_index % pairs) + pairs) % pairs;
      paths.path = {1 + pair, 0, 1 + pairs + pair};
      break;
    }
  }
  return paths;
}

FlowPathSpec CompetitorPath(const TopologySpec& spec, int competitor_index) {
  FlowPathSpec paths;
  switch (spec.kind) {
    case TopologyKind::kDumbbell:
      paths.path = {0};
      break;
    case TopologyKind::kParkingLot:
      paths.path = {competitor_index % std::clamp(spec.hops, 1, kMaxPathHops)};
      break;
    case TopologyKind::kReversePath:
      // Competitors drive the reverse link in its data direction (their own
      // ACKs return uncongested), which is exactly what queues the agents'
      // ACKs behind data packets.
      paths.path = {1};
      break;
    case TopologyKind::kNLeafDumbbell: {
      // End-to-end cross traffic through leaf pair i%P: shares both leaves
      // with the same-index agents, and the bottleneck with everyone.
      const int pairs = ClampedLeafPairs(spec);
      const int pair = ((competitor_index % pairs) + pairs) % pairs;
      paths.path = {1 + pair, 0, 1 + pairs + pair};
      break;
    }
  }
  return paths;
}

double PathPropRttS(const NetworkTopology& topology, const std::vector<int>& path) {
  double one_way = 0.0;
  for (int link : path) {
    assert(link >= 0 && static_cast<size_t>(link) < topology.links.size());
    one_way += topology.links[static_cast<size_t>(link)].prop_delay_s;
  }
  return 2.0 * one_way;
}

}  // namespace mocc
