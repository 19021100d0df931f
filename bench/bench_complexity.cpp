// Verifies the paper's complexity claim (§1/§6): "The complexity of the
// multilevel algorithm is O(N_E) … making the multilevel partitioning
// technique a fast linear time heuristic.  Since the multilevel technique
// is a linear time heuristic, it can be easily scaled to partition for a
// large number of processors."
//
// The harness sweeps circuit sizes, times the full three-phase pipeline and
// reports ns per edge (flat ⇒ linear), plus a sweep over k showing the
// near-independence of partition count.

#include <cstdio>

#include "bench_common.hpp"
#include "circuit/generator.hpp"
#include "partition/multilevel_partitioner.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace pls;

  util::Cli cli("Complexity — multilevel partition time vs circuit size");
  bench::add_common_flags(cli);
  cli.add_flag("k", "number of parts for the size sweep", "8");
  if (!cli.parse(argc, argv)) return 1;
  std::uint32_t k = 0;
  const bench::BenchConfig cfg =
      bench::config_from_cli(cli, [&](const bench::BenchConfig& c) {
        bench::require_activity_off(c, "bench_complexity");
        k = static_cast<std::uint32_t>(cli.get_u64("k", 1, 1024));
      });

  util::AsciiTable table({"Gates", "Edges", "Levels", "Cut", "Time(ms)",
                          "ns/edge"});
  util::CsvWriter csv(cfg.csv_dir + "/complexity.csv",
                      {"gates", "edges", "levels", "cut", "ms", "ns_per_edge",
                       "k"});

  const partition::MultilevelPartitioner ml;
  for (std::size_t gates : {500u, 1000u, 2000u, 4000u, 8000u, 16000u,
                            32000u}) {
    circuit::GeneratorSpec spec;
    spec.name = "sweep";
    spec.num_comb_gates = gates;
    spec.num_inputs = std::max<std::size_t>(8, gates / 80);
    spec.num_outputs = std::max<std::size_t>(4, gates / 120);
    spec.num_dffs = gates / 16;
    spec.seed = cfg.driver.seed;
    const circuit::Circuit c = circuit::generate(spec);

    // Median-of-3 timing.
    double best_ms = 1e18;
    partition::MultilevelTrace trace;
    for (int rep = 0; rep < 3; ++rep) {
      util::WallTimer t;
      ml.run_traced(c, k, cfg.driver.seed + rep, &trace);
      best_ms = std::min(best_ms, t.elapsed_seconds() * 1e3);
    }
    const double ns_per_edge =
        best_ms * 1e6 / static_cast<double>(c.num_edges());
    table.add_row({std::to_string(gates), std::to_string(c.num_edges()),
                   std::to_string(trace.level_sizes.size()),
                   std::to_string(trace.final_quality),
                   util::AsciiTable::num(best_ms),
                   util::AsciiTable::num(ns_per_edge, 1)});
    csv.row({std::to_string(gates), std::to_string(c.num_edges()),
             std::to_string(trace.level_sizes.size()),
             std::to_string(trace.final_quality),
             util::AsciiTable::num(best_ms, 4),
             util::AsciiTable::num(ns_per_edge, 2), std::to_string(k)});
  }
  std::printf("Multilevel partitioning time vs size (k=%u) — linear if "
              "ns/edge stays flat\n%s",
              k, table.render().c_str());

  // k sweep on a fixed circuit.
  util::AsciiTable ktable({"k", "Time(ms)", "Cut"});
  const circuit::Circuit c9234 = bench::make_benchmark("s9234", cfg);
  for (std::uint32_t kk : {2u, 4u, 8u, 16u, 32u, 64u}) {
    util::WallTimer t;
    partition::MultilevelTrace trace;
    ml.run_traced(c9234, kk, cfg.driver.seed, &trace);
    ktable.add_row({std::to_string(kk),
                    util::AsciiTable::num(t.elapsed_seconds() * 1e3),
                    std::to_string(trace.final_quality)});
  }
  std::printf("\nScaling with partition count on s9234\n%s",
              ktable.render().c_str());
  std::printf("CSV: %s\n", csv.path().c_str());
  return 0;
}
