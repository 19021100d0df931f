// Example: compare all registered partitioning strategies on one circuit.
//
// Loads a .bench netlist if given (positional argument), otherwise
// generates the s9234 stand-in, and prints the static quality metrics
// (both the pairwise edge cut and the native hypergraph λ−1 volume) plus
// the multilevel traces of the graph and hypergraph pipelines — a compact
// view of how the three-phase algorithms work.
//
//   ./examples/partition_compare [netlist.bench] [--k 8] [--seed 7]

#include <cstdio>
#include <sstream>

#include "circuit/bench_io.hpp"
#include "circuit/circuit_stats.hpp"
#include "circuit/generator.hpp"
#include "framework/registry.hpp"
#include "hypergraph/metrics.hpp"
#include "hypergraph/multilevel_hg_partitioner.hpp"
#include "partition/metrics.hpp"
#include "partition/multilevel_partitioner.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) try {
  using namespace pls;

  util::Cli cli("partition_compare: static quality of every strategy");
  cli.add_flag("k", "number of parts", "8");
  cli.add_flag("seed", "partitioning seed", "7");
  if (!cli.parse(argc, argv)) return 1;
  const std::uint64_t seed = cli.get_u64("seed", 0, ~std::uint64_t{0} >> 1);

  const circuit::Circuit c =
      cli.positional().empty()
          ? circuit::make_iscas_like("s9234", seed)
          : circuit::parse_bench_file(cli.positional().front());
  const auto k = static_cast<std::uint32_t>(cli.get_u64("k", 1, c.size()));
  {
    std::ostringstream os;
    os << circuit::compute_stats(c);
    std::printf("circuit: %s\n\n", os.str().c_str());
  }
  const hypergraph::Hypergraph hg = hypergraph::Hypergraph::from_circuit(c);

  util::AsciiTable table({"Strategy", "EdgeCut", "HGLambda1", "HGCutNets",
                          "Imbalance", "Concurrency", "Time(ms)"});
  for (const auto& name : framework::partitioner_names()) {
    const auto strategy = framework::make_partitioner(name);
    util::WallTimer t;
    const partition::Partition p = strategy->run(c, k, seed);
    const double ms = t.elapsed_seconds() * 1e3;
    table.add_row(
        {name, std::to_string(partition::edge_cut(c, p)),
         std::to_string(hypergraph::connectivity_minus_one(hg, p)),
         std::to_string(hypergraph::cut_net(hg, p)),
         util::AsciiTable::num(partition::imbalance(c, p), 3),
         util::AsciiTable::num(partition::concurrency(c, p), 3),
         util::AsciiTable::num(ms)});
  }
  std::printf("%s\n", table.render().c_str());

  // Peek inside the graph multilevel pipeline.
  partition::MultilevelTrace trace;
  partition::MultilevelPartitioner().run_traced(c, k, seed, &trace);
  std::printf("multilevel hierarchy: %zu gates", c.size());
  for (std::size_t s : trace.level_sizes) std::printf(" -> %zu", s);
  std::printf(" globules\ninitial cut %llu",
              static_cast<unsigned long long>(trace.initial_quality));
  for (std::uint64_t cut : trace.quality_after_level) {
    std::printf(" -> %llu", static_cast<unsigned long long>(cut));
  }
  std::printf(" (refined per level, coarsest to original)\n\n");

  // And the hypergraph pipeline, in λ−1 terms.
  hypergraph::MultilevelHGTrace hg_trace;
  hypergraph::MultilevelHGPartitioner().run_traced(c, k, seed, &hg_trace);
  std::printf("hypergraph hierarchy: %zu gates", c.size());
  for (std::size_t s : hg_trace.level_sizes) std::printf(" -> %zu", s);
  std::printf(" globules\ninitial lambda-1 %llu",
              static_cast<unsigned long long>(hg_trace.initial_quality));
  for (std::uint64_t v : hg_trace.quality_after_level) {
    std::printf(" -> %llu", static_cast<unsigned long long>(v));
  }
  std::printf(" (refined per level, coarsest to original)\n");
  return 0;
} catch (const pls::util::FlagError& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
