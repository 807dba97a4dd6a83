// Real-time communications over MOCC (the paper's §6.3 scenario): a Salsify-style call
// where BOTH sustained rate and delay matter, expressed as the weight vector
// <0.4, 0.5, 0.1>. Prints per-transport inter-packet delay and queueing delay.
//
//   $ ./examples/rtc_call
#include <iostream>

#include "src/apps/rtc.h"
#include "src/baselines/bbr.h"
#include "src/baselines/cubic.h"
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
  link.bandwidth_bps = 6e6;
  link.one_way_delay_s = 0.020;
  link.queue_capacity_pkts = 250;
  link.random_loss_rate = 0.01;

  TablePrinter t({"transport", "frame_delay_ms", "jitter_ms", "queueing_ms",
                  "goodput_Mbps"});
  for (int which = 0; which < 3; ++which) {
    PacketNetwork net(link, 321);
    std::unique_ptr<CongestionControl> cc;
    std::string name;
    switch (which) {
      case 0:
        cc = PolicySpec().WithModel(model).MakeController(RtcObjective());
        name = "MOCC <0.4,0.5,0.1>";
        break;
      case 1:
        cc = std::make_unique<CubicCc>();
        name = "TCP CUBIC";
        break;
      default:
        cc = std::make_unique<BbrCc>();
        name = "BBR";
        break;
    }
    FlowOptions options;
    options.keep_delivery_times = true;
    const int flow = net.AddFlow(std::move(cc), options);
    net.Run(40.0);
    const RtcResult r = AnalyzeRtcFlow(net, flow, 10.0, 40.0);
    t.AddRow({name, TablePrinter::Num(r.frame_delay_ms, 1),
              TablePrinter::Num(r.jitter_ms, 1),
              TablePrinter::Num(r.mean_queueing_delay_ms, 1),
              TablePrinter::Num(r.goodput_mbps, 2)});
  }
  t.Print(std::cout);
  std::cout << "Low frame delay (spacing + queueing) = a smooth call.\n";
  return 0;
}
