// Coarsening ablation (paper §6, future work): "we are currently
// investigating the use of activity levels of communication to make better
// decisions while coarsening.  In addition, different schemes for
// coarsening and refinement are also being studied."
//
// Compares the paper's fanout coarsening against heavy-edge matching, each
// with and without activity weighting, on static quality AND on the actual
// Time Warp run statistics for s9234.

#include <cstdio>

#include "bench_common.hpp"
#include "partition/metrics.hpp"
#include "partition/multilevel_partitioner.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace pls;

  util::Cli cli("Coarsening ablation — fanout vs heavy-edge, ± activity");
  bench::add_common_flags(cli);
  cli.add_flag("k", "number of nodes", "8");
  cli.add_flag("circuit", "benchmark", "s9234");
  if (!cli.parse(argc, argv)) return 1;
  std::uint32_t k = 0;
  const bench::BenchConfig cfg =
      bench::config_from_cli(cli, [&](const bench::BenchConfig& c) {
        bench::require_activity_off(c, "bench_coarsening_ablation");
        k = static_cast<std::uint32_t>(cli.get_u64("k", 1, 1024));
      });
  const std::string name = cli.get("circuit");

  const circuit::Circuit c = bench::make_benchmark(name, cfg);

  struct Variant {
    const char* label;
    partition::CoarsenScheme scheme;
    bool use_activity;
  };
  const Variant variants[] = {
      {"fanout", partition::CoarsenScheme::kFanout, false},
      {"fanout+activity", partition::CoarsenScheme::kFanout, true},
      {"heavy-edge", partition::CoarsenScheme::kHeavyEdge, false},
      {"heavy-edge+activity", partition::CoarsenScheme::kHeavyEdge, true},
  };

  util::AsciiTable table({"Scheme", "EdgeCut", "Imbalance", "Time(s)",
                          "Rollbacks", "AppMsgs"});
  util::CsvWriter csv(cfg.csv_dir + "/coarsening_ablation.csv",
                      {"circuit", "scheme", "k", "edge_cut", "imbalance",
                       "seconds", "rollbacks", "app_messages"});

  for (const Variant& v : variants) {
    framework::DriverConfig dc = bench::driver_config(cfg, "Multilevel", k);
    dc.multilevel.scheme = v.scheme;
    // The driver profiles the run's own stimulus and weights the graph.
    dc.use_activity = v.use_activity;
    const framework::DriverResult res = framework::run_parallel(c, dc);
    table.add_row({v.label, std::to_string(res.edge_cut),
                   util::AsciiTable::num(res.imbalance, 3),
                   util::AsciiTable::num(res.run.wall_seconds),
                   std::to_string(res.run.totals.total_rollbacks()),
                   std::to_string(res.run.totals.inter_node_messages)});
    csv.row({name, v.label, std::to_string(k), std::to_string(res.edge_cut),
             util::AsciiTable::num(res.imbalance, 4),
             util::AsciiTable::num(res.run.wall_seconds, 4),
             std::to_string(res.run.totals.total_rollbacks()),
             std::to_string(res.run.totals.inter_node_messages)});
  }

  std::printf("Coarsening ablation on %s at k=%u\n%s", name.c_str(), k,
              table.render().c_str());
  std::printf("CSV: %s\n", csv.path().c_str());
  return 0;
}
