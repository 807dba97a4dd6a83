// Multi-objective sweep: the signature capability of MOCC — one trained model, many
// application requirements. Sweeps the weight vector from throughput-leaning to
// latency-leaning and prints the achieved operating point of each (the "MOCC range"
// of the paper's Figure 1b).
//
//   $ ./examples/multi_objective_sweep
#include <iostream>

#include "src/common/table.h"
#include "src/core/model_zoo.h"
#include "src/core/policy_spec.h"
#include "src/core/presets.h"
#include "src/netsim/packet_network.h"

int main() {
  using namespace mocc;

  ModelZoo zoo;
  auto model = GetOrTrainBaseModel(&zoo, "quickstart_base", QuickOfflinePreset());

  LinkParams link;
  link.bandwidth_bps = 20e6;
  link.one_way_delay_s = 0.020;
  link.queue_capacity_pkts = 700;
  link.random_loss_rate = 0.001;

  std::cout << "Sweeping application requirements on a 20 Mbps / 40 ms link\n"
            << "(one MOCC model; only the registered weight vector changes)\n";
  TablePrinter t({"weight <thr,lat,loss>", "throughput_Mbps", "avg_rtt_ms", "loss_%"});
  for (double w_thr : {0.8, 0.65, 0.5, 0.35, 0.2, 0.1}) {
    const WeightVector w = WeightVector(w_thr, 0.9 - w_thr, 0.1);
    PacketNetwork net(link, 4242);
    const int flow = net.AddFlow(PolicySpec().WithModel(model).MakeController(w));
    net.Run(40.0);
    const FlowRecord& rec = net.record(flow);
    t.AddRow({w.ToString(), TablePrinter::Num(rec.AvgThroughputBps(15.0, 40.0) / 1e6, 1),
              TablePrinter::Num(rec.AvgRttS() * 1e3, 1),
              TablePrinter::Num(rec.LossRate() * 100, 2)});
  }
  t.Print(std::cout);
  std::cout << "Higher w_thr -> more throughput (tolerating queueing delay);\n"
            << "higher w_lat -> the flow backs off to keep RTT near the 40 ms base.\n";
  return 0;
}
