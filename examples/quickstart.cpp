// Quickstart: the whole pipeline in ~60 lines.
//
// Generates a mid-size synthetic circuit, partitions it with the paper's
// multilevel algorithm, simulates it on the optimistic Time Warp kernel
// across 4 nodes, and verifies the committed results against a sequential
// reference run.
//
//   ./examples/quickstart [--gates N] [--nodes K] [--end T] [--partitioner P]

#include <cstdio>
#include <sstream>

#include "circuit/circuit_stats.hpp"
#include "circuit/generator.hpp"
#include "framework/driver.hpp"
#include "logicsim/equivalence.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) try {
  using namespace pls;

  util::Cli cli("quickstart: partition a synthetic circuit and simulate it");
  cli.add_flag("gates", "combinational gate count", "800");
  cli.add_flag("nodes", "number of simulation nodes", "4");
  cli.add_flag("end", "virtual-time horizon", "2000");
  cli.add_flag("partitioner",
               "Random | DFS | Cluster | Topological | Multilevel | "
               "ConePartition",
               "Multilevel");
  cli.add_flag("seed", "generator / stimulus seed", "42");
  if (!cli.parse(argc, argv)) return 1;

  // 1. A circuit (swap in circuit::parse_bench_file() for a real netlist).
  circuit::GeneratorSpec spec;
  spec.name = "quickstart";
  spec.num_inputs = 24;
  spec.num_outputs = 12;
  spec.num_comb_gates = cli.get_u64("gates", spec.num_outputs, 1u << 20);
  spec.num_dffs = spec.num_comb_gates / 16;
  spec.seed = cli.get_u64("seed", 0, ~std::uint64_t{0} >> 1);
  const circuit::Circuit c = circuit::generate(spec);
  std::printf("circuit: %s\n",
              [&] {
                std::ostringstream os;
                os << circuit::compute_stats(c);
                return os.str();
              }()
                  .c_str());

  // 2. Partition + parallel simulation.
  framework::DriverConfig cfg;
  cfg.partitioner = cli.get("partitioner");
  cfg.num_nodes =
      static_cast<std::uint32_t>(cli.get_u64("nodes", 1, c.size()));
  cfg.end_time = cli.get_u64("end", 1, std::uint64_t{1} << 60);
  cfg.seed = spec.seed;
  const framework::DriverResult res = framework::run_parallel(c, cfg);

  std::printf("partition (%s, k=%u): edge_cut=%llu imbalance=%.3f "
              "concurrency=%.3f (%.1f ms)\n",
              cfg.partitioner.c_str(), cfg.num_nodes,
              static_cast<unsigned long long>(res.edge_cut), res.imbalance,
              res.concurrency, res.partition_seconds * 1e3);
  std::printf("parallel:   %.3fs, %llu committed, %llu rollbacks, "
              "%llu app messages\n",
              res.run.wall_seconds,
              static_cast<unsigned long long>(res.run.totals.events_committed),
              static_cast<unsigned long long>(res.run.totals.total_rollbacks()),
              static_cast<unsigned long long>(
                  res.run.totals.inter_node_messages));

  // 3. Sequential reference + equivalence check.
  const logicsim::SeqStats seq = framework::run_sequential(c, cfg);
  std::printf("sequential: %.3fs, %llu events\n", seq.wall_seconds,
              static_cast<unsigned long long>(seq.events_processed));

  const auto eq = logicsim::check_equivalence(res.run, seq);
  std::printf("equivalence: %s\n", eq.describe().c_str());
  return eq.ok() ? 0 : 2;
} catch (const pls::util::FlagError& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
