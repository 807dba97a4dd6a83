// Video streaming over MOCC (the paper's §6.3 scenario): an MPC-style ABR client
// streams 4-second chunks over a 6-level bitrate ladder; the transport is MOCC with a
// throughput-preferring requirement (playback buffers absorb latency). Compared against
// TCP CUBIC on the same wifi-like link.
//
//   $ ./examples/video_streaming
#include <iostream>

#include "src/apps/video.h"
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
  link.one_way_delay_s = 0.025;
  link.queue_capacity_pkts = 300;
  link.random_loss_rate = 0.005;
  Rng trace_rng(9);
  const BandwidthTrace trace = BandwidthTrace::RandomWalk(3.5e6, 6e6, 8.0, 180.0, &trace_rng);

  TablePrinter t({"transport", "avg_thr_Mbps", "rebuffer_s", "top-quality chunks"});
  for (int which = 0; which < 2; ++which) {
    PacketNetwork net(link, 777);
    net.SetBandwidthTrace(trace);
    std::unique_ptr<CongestionControl> cc;
    std::string name;
    if (which == 0) {
      // The video app registers its preference: throughput matters, latency doesn't.
      cc = PolicySpec().WithModel(model).MakeController(ThroughputObjective());
      name = "MOCC <0.8,0.1,0.1>";
    } else {
      cc = std::make_unique<CubicCc>();
      name = "TCP CUBIC";
    }
    const int flow = net.AddFlow(std::move(cc));
    VideoConfig config;
    config.num_chunks = 25;
    VideoSession session(config);
    const VideoResult r = session.Run(&net, flow);
    t.AddRow({name, TablePrinter::Num(r.avg_chunk_throughput_mbps, 2),
              TablePrinter::Num(r.rebuffer_s, 1),
              std::to_string(r.CountAtLevel(5) + r.CountAtLevel(4))});
  }
  t.Print(std::cout);
  std::cout << "A lossy wifi-like path: CUBIC backs off on every random drop, while\n"
            << "MOCC's learned policy keeps the ladder high.\n";
  return 0;
}
