// Figure 10 — bulk data transfer (§6.3): repeated 100 MB transfers with 0.5% random
// loss emulating background interference; metric = flow completion time mean and
// standard deviation. MOCC greedily registers w=<1,0,0> (sanitized onto the simplex).
// Paper: MOCC lowest mean FCT (8.83 s) and the most stable (stddev 0.096).
#include <iostream>

#include "bench/bench_support.h"
#include "src/apps/bulk.h"
#include "src/common/table.h"

using namespace mocc;

int main() {
  BulkConfig config;
  config.file_mb = 100.0;
  config.link.bandwidth_bps = 100e6;
  config.link.one_way_delay_s = 0.005;
  config.link.queue_capacity_pkts = 1000;
  config.link.random_loss_rate = 0.005;
  const int repetitions = 10;  // paper: 50; scaled for bench runtime

  std::vector<SchemeSpec> schemes;
  // The bulk sender knows its provisioned link; start at 40% of it (slow-start
  // analogue — CUBIC/BBR discover capacity exponentially, Eq. 1 cannot).
  {
    auto model = BenchBaseModel();
    const WeightVector greedy = WeightVector(1.0, 0.0, 0.0).Sanitized();
    schemes.push_back({"MOCC", [model, greedy](const LinkParams& link) {
                         return PolicySpec().WithModel(model).MakeController(
                             greedy, 0.4 * link.bandwidth_bps);
                       }});
  }
  for (auto& s : HandcraftedSchemes()) {
    if (s.name == "TCP CUBIC" || s.name == "BBR" || s.name == "TCP Vegas") {
      schemes.push_back(std::move(s));
    }
  }

  PrintSection(std::cout, "Fig 10: bulk transfer FCT (100 MB x " +
                              std::to_string(repetitions) + ", 0.5% loss)");
  TablePrinter t({"scheme", "mean_fct_s", "stddev_s", "min_s", "max_s"});
  std::vector<std::pair<std::string, RunningStat>> results;
  for (const auto& scheme : schemes) {
    const RunningStat stat = RunBulkTransfers(
        config, [&] { return scheme.make(config.link); }, repetitions, 7700);
    results.emplace_back(scheme.name, stat);
    t.AddRow({scheme.name, TablePrinter::Num(stat.Mean(), 2),
              TablePrinter::Num(stat.StdDev(), 3), TablePrinter::Num(stat.Min(), 2),
              TablePrinter::Num(stat.Max(), 2)});
  }
  t.Print(std::cout);

  const double line_rate = config.file_mb * 8e6 / config.link.bandwidth_bps;
  double best_other_mean = 1e18;
  for (size_t i = 1; i < results.size(); ++i) {
    best_other_mean = std::min(best_other_mean, results[i].second.Mean());
  }
  std::cout << "line-rate lower bound: " << TablePrinter::Num(line_rate, 2) << " s\n"
            << "shape check: MOCC FCT " << TablePrinter::Num(results[0].second.Mean(), 2)
            << " s within 10% of the best ("
            << TablePrinter::Num(best_other_mean, 2)
            << " s) and far below loss-based CC? "
            << (results[0].second.Mean() <= best_other_mean * 1.10 ? "yes" : "NO")
            << " (paper: MOCC lowest mean and lowest variance)\n";
  return 0;
}
