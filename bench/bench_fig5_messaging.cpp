// Reproduces paper Figure 5: "Messaging statistics for s9234 model" —
// the number of inter-node application messages versus node count for all
// six partitioning strategies.
//
// Expected shape (paper §5): the multilevel algorithm reduces communication
// in the 8–16 processor (4–8 node) region; the Cone partitioner is also
// low; the Topological partitioner's large edge cut makes it the heaviest.

#include <cstdio>

#include "bench_common.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace pls;

  util::Cli cli("Figure 5 — application messages of s9234 vs nodes");
  bench::add_common_flags(cli);
  cli.add_flag("max-nodes", "largest node count", "8");
  cli.add_flag("circuit", "benchmark to sweep", "s9234");
  if (!cli.parse(argc, argv)) return 1;
  std::uint32_t max_nodes = 0;
  const bench::BenchConfig cfg =
      bench::config_from_cli(cli, [&](const bench::BenchConfig&) {
        max_nodes =
            static_cast<std::uint32_t>(cli.get_u64("max-nodes", 2, 64));
      });
  const std::string circuit_name = cli.get("circuit");

  const circuit::Circuit c = bench::make_benchmark(circuit_name, cfg);

  // The unweighted-vs-activity comparison lives here: --activity
  // off,profile adds "Multilevel+profile" / "MultilevelHG+profile" column
  // groups whose app_messages measure what traffic-weighted partitions
  // actually save at runtime.  With --drift the stimulus's hot region
  // moves at half the horizon, so the same columns show how each
  // partition ages mid-run.
  const auto cells = bench::sweep_cells(cfg);
  std::vector<std::string> header{"Nodes"};
  for (const auto& cell : cells) header.push_back(cell.label);
  util::AsciiTable table(header);
  util::CsvWriter csv(cfg.csv_dir + "/fig5_messaging.csv",
                      {"circuit", "nodes", "strategy", "throttle",
                       "activity", "app_messages", "anti_messages",
                       "rollbacks", "static_comm_volume",
                       "weighted_imbalance"});

  for (std::uint32_t nodes = 2; nodes <= max_nodes; ++nodes) {
    std::vector<std::string> row{std::to_string(nodes)};
    for (const auto& cell : cells) {
      const auto avg = bench::run_parallel_averaged(
          c, cfg, cell.strategy, nodes, cell.throttle, cell.activity);
      row.push_back(util::AsciiTable::num(avg.app_messages, 0));
      csv.row({circuit_name, std::to_string(nodes), cell.strategy,
               warped::to_string(cell.throttle), cell.activity,
               util::AsciiTable::num(avg.app_messages, 0),
               util::AsciiTable::num(avg.anti_messages, 0),
               util::AsciiTable::num(avg.rollbacks, 0),
               std::to_string(avg.last.comm_volume),
               util::AsciiTable::num(avg.last.weighted_imbalance, 3)});
    }
    table.add_row(row);
  }

  std::printf("Figure 5 — %s application messages\n%s",
              circuit_name.c_str(), table.render().c_str());
  std::printf("CSV: %s\n", csv.path().c_str());
  return 0;
}
