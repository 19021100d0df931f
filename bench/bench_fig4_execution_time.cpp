// Reproduces paper Figure 4: "Execution times of s9234" — wall-clock
// simulation time versus number of nodes (1..8) for all six partitioning
// strategies, with the sequential simulator as the horizontal reference.
//
// Expected shape (paper §5): the multilevel algorithm outperforms all other
// strategies once more than 4 nodes are involved; Cluster and DFS
// deteriorate with node count (lack of concurrency); Topological is limited
// by communication.

#include <cstdio>

#include "bench_common.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace pls;

  util::Cli cli("Figure 4 — execution times of s9234 vs number of nodes");
  bench::add_common_flags(cli);
  cli.add_flag("max-nodes", "largest node count", "8");
  cli.add_flag("circuit", "benchmark to sweep", "s9234");
  if (!cli.parse(argc, argv)) return 1;
  std::uint32_t max_nodes = 0;
  const bench::BenchConfig cfg =
      bench::config_from_cli(cli, [&](const bench::BenchConfig&) {
        max_nodes =
            static_cast<std::uint32_t>(cli.get_u64("max-nodes", 1, 64));
      });
  const std::string circuit_name = cli.get("circuit");

  const circuit::Circuit c = bench::make_benchmark(circuit_name, cfg);
  const double seq = bench::run_sequential_averaged(c, cfg);
  std::printf("%s sequential reference: %.2fs\n", circuit_name.c_str(), seq);

  const auto cells = bench::sweep_cells(cfg);
  std::vector<std::string> header{"Nodes", "Sequential"};
  for (const auto& cell : cells) header.push_back(cell.label);
  util::AsciiTable table(header);
  util::CsvWriter csv(cfg.csv_dir + "/fig4_execution_time.csv",
                      {"circuit", "nodes", "strategy", "throttle",
                       "activity", "seconds", "seq_seconds", "lanes",
                       "events_per_s", "trans_per_s",
                       "trans_per_s_per_lane"});

  for (std::uint32_t nodes = 1; nodes <= max_nodes; ++nodes) {
    std::vector<std::string> row{std::to_string(nodes),
                                 util::AsciiTable::num(seq)};
    for (const auto& cell : cells) {
      const auto avg = bench::run_parallel_averaged(
          c, cfg, cell.strategy, nodes, cell.throttle, cell.activity);
      row.push_back(util::AsciiTable::num(avg.wall_seconds));
      // Throughput columns: committed events/sec plus committed lane
      // transitions/sec — with --lanes N one event carries up to N
      // transitions, so trans_per_s is the batching speedup metric and
      // trans_per_s_per_lane its per-scenario normalization.
      const double wall = avg.wall_seconds > 0 ? avg.wall_seconds : 1e-9;
      const double ev_s = avg.committed / wall;
      const double tr_s = avg.committed_transitions / wall;
      csv.row({circuit_name, std::to_string(nodes), cell.strategy,
               warped::to_string(cell.throttle), cell.activity,
               util::AsciiTable::num(avg.wall_seconds, 4),
               util::AsciiTable::num(seq, 4), std::to_string(cfg.lanes),
               util::AsciiTable::num(ev_s, 1),
               util::AsciiTable::num(tr_s, 1),
               util::AsciiTable::num(tr_s / cfg.lanes, 1)});
      std::fflush(stdout);
    }
    table.add_row(row);
  }

  std::printf("Figure 4 — %s execution times (seconds)\n%s",
              circuit_name.c_str(), table.render().c_str());
  std::printf("CSV: %s\n", csv.path().c_str());
  return 0;
}
