// Reproduces paper Figures 4, 5 and 6 — "Execution times of s9234",
// "Messaging statistics for s9234 model" and "Rollback behaviour of s9234"
// — from one sweep: wall-clock simulation time, inter-node application
// messages and total rollbacks versus node count for every partitioning
// strategy, with the sequential simulator as Figure 4's reference.  Each
// (node count, sweep cell) runs once, and that one result fills the cell
// in all three tables and CSVs, so the paper's §5 argument (fewer messages,
// so fewer rollbacks, so less time) reads off the same runs.  Figure 4
// starts at 1 node; Figures 5 and 6 start at 2.
//
// Expected shape (paper §5):
//   Fig. 4 — the multilevel algorithm outperforms all other strategies once
//     more than 4 nodes are involved; Cluster and DFS deteriorate with node
//     count (lack of concurrency); Topological is limited by communication.
//   Fig. 5 — the multilevel algorithm reduces communication in the 8–16
//     processor (4–8 node) region; the Cone partitioner is also low; the
//     Topological partitioner's large edge cut makes it the heaviest.
//   Fig. 6 — "the multilevel algorithm greatly reduces the number of
//     rollbacks during simulation; highlighting the equilibrium achieved
//     between concurrency and communication"; Cluster, DFS and Topological
//     suffer, particularly at high node counts.

#include <cstdio>

#include "bench_common.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

namespace {

using Fields = std::vector<std::string>;

Fields concat(Fields head, const Fields& tail) {
  head.insert(head.end(), tail.begin(), tail.end());
  return head;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pls;
  using util::AsciiTable;

  util::Cli cli("Figures 4-6 — execution time, application messages and "
                "rollbacks of s9234 vs number of nodes, from one sweep");
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

  // One column group per (throttle × activity) mode pair, suffixed only
  // when a dimension is swept.  --activity off,profile adds
  // "Multilevel+profile" / "MultilevelHG+profile" groups whose messages
  // measure what traffic-weighted partitions save at run time; with
  // --drift the stimulus's hot region moves at half the horizon, so the
  // same groups show how each partition ages mid-run.
  const auto cells = bench::sweep_cells(cfg);
  Fields labels;
  for (const auto& cell : cells) labels.push_back(cell.label);
  AsciiTable fig4(concat({"Nodes", "Sequential"}, labels));
  AsciiTable fig5(concat({"Nodes"}, labels));
  AsciiTable fig6(concat({"Nodes"}, labels));
  const Fields key{"circuit", "nodes", "strategy", "throttle", "activity"};
  util::CsvWriter fig4_csv(
      cfg.csv_dir + "/fig4_execution_time.csv",
      concat(key, {"seconds", "seq_seconds", "lanes", "events_per_s",
                   "trans_per_s", "trans_per_s_per_lane"}));
  util::CsvWriter fig5_csv(
      cfg.csv_dir + "/fig5_messaging.csv",
      concat(key, {"app_messages", "anti_messages", "rollbacks",
                   "static_comm_volume", "weighted_imbalance"}));
  util::CsvWriter fig6_csv(
      cfg.csv_dir + "/fig6_rollbacks.csv",
      concat(key, {"rollbacks", "committed_events", "events_processed",
                   "events_rolled_back", "rollback_fraction"}));

  for (std::uint32_t nodes = 1; nodes <= max_nodes; ++nodes) {
    Fields row4{std::to_string(nodes), AsciiTable::num(seq)};
    Fields row5{std::to_string(nodes)};
    Fields row6{std::to_string(nodes)};
    for (const auto& cell : cells) {
      const auto avg = bench::run_parallel_averaged(
          c, cfg, cell.strategy, nodes, cell.throttle, cell.activity);
      const Fields cell_key{circuit_name, std::to_string(nodes),
                            cell.strategy, warped::to_string(cell.throttle),
                            cell.activity};
      // Throughput columns: committed events/sec plus committed lane
      // transitions/sec — with --lanes N one event carries up to N
      // transitions, so trans_per_s is the batching speedup metric and
      // trans_per_s_per_lane its per-scenario normalization.
      const double wall = avg.wall_seconds > 0 ? avg.wall_seconds : 1e-9;
      const double tr_s = avg.committed_transitions / wall;
      row4.push_back(AsciiTable::num(avg.wall_seconds));
      fig4_csv.row(concat(cell_key,
                          {AsciiTable::num(avg.wall_seconds, 4),
                           AsciiTable::num(seq, 4),
                           std::to_string(avg.last.lanes),
                           AsciiTable::num(avg.committed / wall, 1),
                           AsciiTable::num(tr_s, 1),
                           AsciiTable::num(tr_s / avg.last.lanes, 1)}));
      if (nodes >= 2) {
        row5.push_back(AsciiTable::num(avg.app_messages, 0));
        row6.push_back(AsciiTable::num(avg.rollbacks, 0));
        fig5_csv.row(concat(
            cell_key, {AsciiTable::num(avg.app_messages, 0),
                       AsciiTable::num(avg.anti_messages, 0),
                       AsciiTable::num(avg.rollbacks, 0),
                       std::to_string(avg.last.comm_volume),
                       AsciiTable::num(avg.last.weighted_imbalance, 3)}));
        fig6_csv.row(concat(
            cell_key, {AsciiTable::num(avg.rollbacks, 0),
                       AsciiTable::num(avg.committed, 0),
                       AsciiTable::num(avg.events_processed, 0),
                       AsciiTable::num(avg.events_rolled_back, 0),
                       AsciiTable::num(avg.rollback_fraction(), 4)}));
      }
      std::fflush(stdout);
    }
    fig4.add_row(row4);
    if (nodes >= 2) {
      fig5.add_row(row5);
      fig6.add_row(row6);
    }
  }

  const char* name = circuit_name.c_str();
  std::printf("Figure 4 — %s execution times (seconds)\n%s", name,
              fig4.render().c_str());
  std::printf("CSV: %s\n", fig4_csv.path().c_str());
  std::printf("Figure 5 — %s application messages\n%s", name,
              fig5.render().c_str());
  std::printf("CSV: %s\n", fig5_csv.path().c_str());
  std::printf("Figure 6 — %s total rollbacks\n%s", name,
              fig6.render().c_str());
  std::printf("CSV: %s\n", fig6_csv.path().c_str());
  return 0;
}
