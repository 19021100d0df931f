// Comm-fabric strong-scaling bench: wall time and channel traffic of an
// inter-node-heavy run at nodes = 2, 4, 8 with send coalescing off
// (per-message one-message batches — the old protocol's traffic shape)
// versus on (one Batch per destination per LTSF burst).
//
// The workload is deliberately communication-bound: a Random partition of
// a paper benchmark circuit maximizes the cut, so nearly every committed
// send crosses the channel — the regime the paper's fast-Ethernet testbed
// lived in and the one the coalescer targets.  Committed results are
// bit-identical between the two modes (tests/warped_comm_test.cpp and
// the kernel matrix prove it); this harness measures what the batching
// buys: batches/messages ratio and end-to-end wall time.

#include <cstdio>

#include "bench_common.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace pls;

  util::Cli cli("Comm fabric — coalesced vs per-message channel scaling");
  bench::add_common_flags(cli);
  cli.add_flag("max-nodes", "largest node count (sweep is 2,4,..,max)", "8");
  cli.add_flag("circuit", "benchmark to sweep", "s9234");
  cli.add_flag("strategy",
               "partitioning strategy (Random = max cut, the worst-case "
               "inter-node traffic the fabric must absorb)",
               "Random");
  if (!cli.parse(argc, argv)) return 1;
  std::uint32_t max_nodes = 0;
  const bench::BenchConfig cfg =
      bench::config_from_cli(cli, [&](const bench::BenchConfig& c) {
        max_nodes =
            static_cast<std::uint32_t>(cli.get_u64("max-nodes", 2, 64));
        bench::require_activity_off(c, "bench_comm_fabric");
      });
  const std::string circuit_name = cli.get("circuit");
  const std::string strategy = cli.get("strategy");

  const circuit::Circuit c = bench::make_benchmark(circuit_name, cfg);
  const auto mode = bench::throttle_modes(cfg).front();

  util::AsciiTable table({"Nodes", "Wall off (s)", "Wall on (s)", "Speedup",
                          "Msgs", "Batches", "Avg batch"});
  util::CsvWriter csv(cfg.csv_dir + "/comm_fabric.csv",
                      {"circuit", "strategy", "nodes", "coalesce",
                       "wall_seconds", "committed", "app_messages",
                       "batches", "batch_msgs", "avg_batch_msgs",
                       "max_batch_msgs", "rollbacks"});

  for (std::uint32_t nodes = 2; nodes <= max_nodes; nodes *= 2) {
    double wall[2] = {0.0, 0.0};
    std::uint64_t batches = 0;
    std::uint64_t batch_msgs = 0;
    for (const bool coalesce : {false, true}) {
      bench::BenchConfig cell_cfg = cfg;
      cell_cfg.driver.coalesce = coalesce;
      const auto avg = bench::run_parallel_averaged(c, cell_cfg, strategy,
                                                    nodes, mode, "off");
      const auto& totals = avg.last.run.totals;
      wall[coalesce ? 1 : 0] = avg.wall_seconds;
      if (coalesce) {
        batches = totals.batches_sent;
        batch_msgs = totals.batch_msgs_sent;
      }
      const double avg_batch =
          totals.batches_sent > 0
              ? static_cast<double>(totals.batch_msgs_sent) /
                    static_cast<double>(totals.batches_sent)
              : 0.0;
      csv.row({circuit_name, strategy, std::to_string(nodes),
               coalesce ? "on" : "off",
               util::AsciiTable::num(avg.wall_seconds, 3),
               util::AsciiTable::num(avg.committed, 0),
               util::AsciiTable::num(avg.app_messages, 0),
               std::to_string(totals.batches_sent),
               std::to_string(totals.batch_msgs_sent),
               util::AsciiTable::num(avg_batch, 2),
               std::to_string(totals.max_batch_msgs),
               util::AsciiTable::num(avg.rollbacks, 0)});
    }
    table.add_row({std::to_string(nodes), util::AsciiTable::num(wall[0], 3),
                   util::AsciiTable::num(wall[1], 3),
                   util::AsciiTable::num(wall[1] > 0 ? wall[0] / wall[1] : 0.0,
                                         2),
                   std::to_string(batch_msgs), std::to_string(batches),
                   util::AsciiTable::num(
                       batches > 0 ? static_cast<double>(batch_msgs) /
                                         static_cast<double>(batches)
                                   : 0.0,
                       2)});
  }

  std::printf("Comm fabric — %s/%s coalesced vs per-message\n%s",
              circuit_name.c_str(), strategy.c_str(), table.render().c_str());
  std::printf("CSV: %s\n", csv.path().c_str());
  return 0;
}
