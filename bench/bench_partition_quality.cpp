// Static partition-quality study: edge cut, communication volume, load
// imbalance, concurrency and partitioning time for all strategies on the
// three benchmarks — the quantities the paper's §3 argues the multilevel
// algorithm balances (and the quality measure, "edges cut", its related
// work is judged by).
//
// Two cut columns are reported side by side for every strategy:
//   EdgeCut  — pairwise cut of the symmetrized circuit graph (the paper's
//              measure; double-counts multi-fanout nets)
//   HGLambda1 / HGCutNets — native hypergraph connectivity-1 volume and
//              cut-net count (the messages the Time Warp layer actually
//              pays; what "MultilevelHG" optimizes directly)

#include <cstdio>

#include "bench_common.hpp"
#include "framework/registry.hpp"
#include "hypergraph/hypergraph.hpp"
#include "hypergraph/metrics.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace pls;

  util::Cli cli("Partition quality — static metrics for all strategies");
  bench::add_common_flags(cli);
  cli.add_flag("k", "number of parts", "8");
  if (!cli.parse(argc, argv)) return 1;
  std::uint32_t k = 0;
  const bench::BenchConfig cfg =
      bench::config_from_cli(cli, [&](const bench::BenchConfig&) {
        k = static_cast<std::uint32_t>(cli.get_u64("k", 1, 1024));
      });

  const auto amodes = bench::activity_modes(cfg);
  util::AsciiTable table({"Circuit", "Strategy", "Activity", "EdgeCut",
                          "HGLambda1", "HGCutNets", "Imbalance",
                          "WImbalance", "Concurrency", "PartTime(ms)"});
  // comm_volume (circuit-side) and hg_lambda1 (hypergraph-side) are
  // provably equal — both stay in the CSV deliberately: the pair is a
  // cross-check of the two implementations, and comm_volume keeps the
  // schema of earlier runs.  Metrics are always measured on the *unit-
  // weight* circuit/hypergraph, so activity rows stay comparable with
  // unweighted ones.
  // weighted_imbalance is the imbalance under the activity work weights
  // the partitioner actually optimized (equals imbalance for unweighted
  // rows).
  util::CsvWriter csv(cfg.csv_dir + "/partition_quality.csv",
                      {"circuit", "strategy", "activity", "k", "edge_cut",
                       "comm_volume", "hg_lambda1", "hg_cut_nets",
                       "imbalance", "weighted_imbalance", "concurrency",
                       "partition_ms"});

  for (const char* name : {"s5378", "s9234", "s15850"}) {
    const circuit::Circuit c = bench::make_benchmark(name, cfg);
    const hypergraph::Hypergraph hg = hypergraph::Hypergraph::from_circuit(c);
    for (const auto& act : amodes) {
      table.add_rule();
      for (const auto& strategy : bench::strategies()) {
        // Non-multilevel strategies cannot consume weights (the driver
        // fails fast on that combination); only the unweighted group
        // lists them.
        if (act != "off" &&
            !framework::strategy_consumes_weights(strategy)) {
          continue;
        }
        framework::DriverConfig dc = bench::driver_config(cfg, strategy, k);
        bench::apply_activity(dc, act);
        const framework::DriverResult res = framework::partition_only(c, dc);
        const std::uint64_t lambda1 =
            hypergraph::connectivity_minus_one(hg, res.partition);
        const std::uint64_t cut_nets = hypergraph::cut_net(hg, res.partition);
        table.add_row({name, strategy, act, std::to_string(res.edge_cut),
                       std::to_string(lambda1), std::to_string(cut_nets),
                       util::AsciiTable::num(res.imbalance, 3),
                       util::AsciiTable::num(res.weighted_imbalance, 3),
                       util::AsciiTable::num(res.concurrency, 3),
                       util::AsciiTable::num(res.partition_seconds * 1e3,
                                             2)});
        csv.row({name, strategy, act, std::to_string(k),
                 std::to_string(res.edge_cut),
                 std::to_string(res.comm_volume), std::to_string(lambda1),
                 std::to_string(cut_nets),
                 util::AsciiTable::num(res.imbalance, 4),
                 util::AsciiTable::num(res.weighted_imbalance, 4),
                 util::AsciiTable::num(res.concurrency, 4),
                 util::AsciiTable::num(res.partition_seconds * 1e3, 4)});
      }
    }
  }

  std::printf("Partition quality at k=%u\n%s", k, table.render().c_str());
  std::printf("CSV: %s\n", csv.path().c_str());
  return 0;
}
