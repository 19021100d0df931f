// Refinement ablation.  The paper (§3) claims that "the greedy technique
// has also been shown to yield better partitions [12] with reduced
// edge-cut compared to other refinement algorithms (e.g., Kernighan-Lin
// [13] and Fiduccia-Mattheyses [6])" and "converges in a few iterations
// reducing the time needed for partitioning".
//
// Tests that claim: runs the full multilevel pipeline with each refiner on
// every benchmark, reports final edge cut, imbalance and partitioning
// time, and prints which refiner gave each circuit's lowest cut and which
// its shortest time.

#include <cstdio>

#include "bench_common.hpp"
#include "partition/metrics.hpp"
#include "partition/multilevel_partitioner.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace pls;

  util::Cli cli("Refinement ablation — greedy vs KL vs FM inside multilevel");
  bench::add_common_flags(cli);
  cli.add_flag("k", "number of parts", "8");
  if (!cli.parse(argc, argv)) return 1;
  std::uint32_t k = 0;
  const bench::BenchConfig cfg =
      bench::config_from_cli(cli, [&](const bench::BenchConfig& c) {
        bench::require_activity_off(c, "bench_refinement_ablation");
        k = static_cast<std::uint32_t>(cli.get_u64("k", 1, 1024));
      });

  struct Variant {
    const char* label;
    partition::RefinerKind kind;
  };
  const Variant variants[] = {
      {"Greedy", partition::RefinerKind::kGreedy},
      {"Kernighan-Lin", partition::RefinerKind::kKernighanLin},
      {"Fiduccia-Mattheyses", partition::RefinerKind::kFiducciaMattheyses},
  };

  util::AsciiTable table(
      {"Circuit", "Refiner", "EdgeCut", "Imbalance", "Time(ms)"});
  util::CsvWriter csv(cfg.csv_dir + "/refinement_ablation.csv",
                      {"circuit", "refiner", "k", "edge_cut", "imbalance",
                       "ms"});

  std::string measured;
  for (const char* name : {"s5378", "s9234", "s15850"}) {
    const circuit::Circuit c = bench::make_benchmark(name, cfg);
    table.add_rule();
    const Variant* lowest_cut = nullptr;
    const Variant* fastest = nullptr;
    std::uint64_t best_cut = 0;
    double best_ms = 0.0;
    for (const Variant& v : variants) {
      partition::MultilevelOptions opt;
      opt.refiner = v.kind;
      const partition::MultilevelPartitioner ml(opt);
      util::WallTimer t;
      const partition::Partition p = ml.run(c, k, cfg.driver.seed);
      const double ms = t.elapsed_seconds() * 1e3;
      const auto cut = partition::edge_cut(c, p);
      const double imb = partition::imbalance(c, p);
      table.add_row({name, v.label, std::to_string(cut),
                     util::AsciiTable::num(imb, 3),
                     util::AsciiTable::num(ms)});
      csv.row({name, v.label, std::to_string(k), std::to_string(cut),
               util::AsciiTable::num(imb, 4), util::AsciiTable::num(ms, 3)});
      if (lowest_cut == nullptr || cut < best_cut) {
        lowest_cut = &v;
        best_cut = cut;
      }
      if (fastest == nullptr || ms < best_ms) {
        fastest = &v;
        best_ms = ms;
      }
    }
    measured += std::string("  ") + name + ": lowest cut " +
                lowest_cut->label + " (" + std::to_string(best_cut) +
                "), shortest time " + fastest->label + " (" +
                util::AsciiTable::num(best_ms) + " ms)\n";
  }

  std::printf("Refinement ablation at k=%u\n%s", k, table.render().c_str());
  std::printf("Measured (the paper's claim: Greedy gives the lowest cut in "
              "the shortest time):\n%s",
              measured.c_str());
  std::printf("CSV: %s\n", csv.path().c_str());
  return 0;
}
