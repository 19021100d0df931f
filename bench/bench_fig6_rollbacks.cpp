// Reproduces paper Figure 6: "Rollback behaviour of s9234" — the total
// number of rollbacks versus node count for all six partitioning
// strategies.
//
// Expected shape (paper §5): "the multilevel algorithm greatly reduces the
// number of rollbacks during simulation; highlighting the equilibrium
// achieved between concurrency and communication"; Cluster, DFS and
// Topological suffer, particularly at high node counts.

#include <cstdio>

#include "bench_common.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace pls;

  util::Cli cli("Figure 6 — total rollbacks of s9234 vs nodes");
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
  // One column group per (throttle × activity) mode pair (suffixes only
  // when a dimension is swept, so the single-mode table keeps its
  // historical shape).
  const auto cells = bench::sweep_cells(cfg);
  std::vector<std::string> header{"Nodes"};
  for (const auto& cell : cells) header.push_back(cell.label);
  util::AsciiTable table(header);
  util::CsvWriter csv(cfg.csv_dir + "/fig6_rollbacks.csv",
                      {"circuit", "nodes", "strategy", "throttle",
                       "activity", "rollbacks", "committed_events",
                       "events_processed", "events_rolled_back",
                       "rollback_fraction"});

  for (std::uint32_t nodes = 2; nodes <= max_nodes; ++nodes) {
    std::vector<std::string> row{std::to_string(nodes)};
    for (const auto& cell : cells) {
      const auto avg = bench::run_parallel_averaged(
          c, cfg, cell.strategy, nodes, cell.throttle, cell.activity);
      row.push_back(util::AsciiTable::num(avg.rollbacks, 0));
      csv.row({circuit_name, std::to_string(nodes), cell.strategy,
               warped::to_string(cell.throttle), cell.activity,
               util::AsciiTable::num(avg.rollbacks, 0),
               util::AsciiTable::num(avg.committed, 0),
               util::AsciiTable::num(avg.events_processed, 0),
               util::AsciiTable::num(avg.events_rolled_back, 0),
               util::AsciiTable::num(avg.rollback_fraction(), 4)});
    }
    table.add_row(row);
  }

  std::printf("Figure 6 — %s total rollbacks\n%s", circuit_name.c_str(),
              table.render().c_str());
  std::printf("CSV: %s\n", csv.path().c_str());
  return 0;
}
