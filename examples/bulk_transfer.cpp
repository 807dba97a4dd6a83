// Bulk data transfer over MOCC (the paper's §6.3 scenario): repeated file transfers on
// a fast but slightly lossy path; the application greedily registers <1,0,0> (MOCC
// sanitizes it onto the weight simplex). Reports flow completion time statistics.
//
//   $ ./examples/bulk_transfer
#include <iostream>

#include "src/apps/bulk.h"
#include "src/baselines/bbr.h"
#include "src/baselines/cubic.h"
#include "src/common/table.h"
#include "src/core/model_zoo.h"
#include "src/core/policy_spec.h"
#include "src/core/presets.h"

int main() {
  using namespace mocc;

  ModelZoo zoo;
  auto model = GetOrTrainBaseModel(&zoo, "quickstart_base", QuickOfflinePreset());

  BulkConfig config;
  config.file_mb = 25.0;  // scaled from the paper's 100 MB for a quick demo
  config.link.bandwidth_bps = 100e6;
  config.link.one_way_delay_s = 0.005;
  config.link.queue_capacity_pkts = 1000;
  config.link.random_loss_rate = 0.005;
  const int repetitions = 6;

  TablePrinter t({"transport", "mean_fct_s", "stddev_s"});
  const WeightVector greedy = WeightVector(1.0, 0.0, 0.0).Sanitized();
  {
    const RunningStat stat = RunBulkTransfers(
        config, [&] { return PolicySpec().WithModel(model).MakeController(greedy); },
        repetitions, 55);
    t.AddRow({"MOCC <1,0,0>", TablePrinter::Num(stat.Mean(), 2),
              TablePrinter::Num(stat.StdDev(), 3)});
  }
  {
    const RunningStat stat = RunBulkTransfers(
        config, [] { return std::make_unique<CubicCc>(); }, repetitions, 55);
    t.AddRow({"TCP CUBIC", TablePrinter::Num(stat.Mean(), 2),
              TablePrinter::Num(stat.StdDev(), 3)});
  }
  {
    const RunningStat stat = RunBulkTransfers(
        config, [] { return std::make_unique<BbrCc>(); }, repetitions, 55);
    t.AddRow({"BBR", TablePrinter::Num(stat.Mean(), 2),
              TablePrinter::Num(stat.StdDev(), 3)});
  }
  t.Print(std::cout);
  std::cout << "Lower and more stable FCT = better bulk-transfer transport"
            << " (line-rate bound: "
            << TablePrinter::Num(config.file_mb * 8e6 / config.link.bandwidth_bps, 2)
            << " s).\n";
  return 0;
}
