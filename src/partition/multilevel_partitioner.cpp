#include "partition/multilevel_partitioner.hpp"

#include <algorithm>
#include <memory>

#include "partition/initial.hpp"
#include "partition/metrics.hpp"
#include "util/rng.hpp"

namespace pls::partition {
namespace {

/// Graph instantiation of the shared V-cycle (multilevel/vcycle.hpp):
/// spread-the-inputs initial partitioning and the configured seeded
/// refiner, with edge cut as the traced quality.
struct GraphPolicy {
  std::uint32_t k;
  util::SplitMix64& seeder;
  std::unique_ptr<Refiner> refiner;

  Partition initial(const graph::WeightedGraph& g,
                    const std::vector<std::uint8_t>& contains_input) {
    InitialOptions iopt;
    iopt.k = k;
    iopt.seed = seeder.next();
    iopt.balance_tol = multilevel::kBalanceTol;
    return initial_partition(g, contains_input, iopt);
  }
  void refine(const graph::WeightedGraph& g, Partition& p) {
    RefineOptions ropt;
    ropt.balance_tol = multilevel::kBalanceTol;
    ropt.max_iters = multilevel::kRefinePasses;
    ropt.seed = seeder.next();
    refiner->refine(g, p, ropt);
  }
  std::uint64_t quality(const graph::WeightedGraph& g,
                        const Partition& p) const {
    return edge_cut(g, p);
  }
};

}  // namespace

Partition MultilevelPartitioner::run(const circuit::Circuit& c,
                                     std::uint32_t k,
                                     std::uint64_t seed) const {
  return run_traced(c, k, seed, nullptr);
}

Partition MultilevelPartitioner::run_traced(const circuit::Circuit& c,
                                            std::uint32_t k,
                                            std::uint64_t seed,
                                            MultilevelTrace* trace) const {
  // Coarsening stops at max(4k, 64) globules; the driver owns the rest
  // (multilevel/vcycle.hpp).
  return multilevel::partition_circuit(
      c, k, seed, opt_.weights, trace,
      [&](const multilevel::VertexTrafficWeights* weights,
          std::uint64_t coarsen_seed, std::uint64_t cap) {
        CoarsenOptions copt;
        copt.threshold = std::max<std::size_t>(std::size_t{4} * k, 64);
        copt.scheme = opt_.scheme;
        copt.seed = coarsen_seed;
        copt.max_globule_weight = cap;
        copt.weights = weights;
        return coarsen(c, copt);
      },
      [&](util::SplitMix64& seeder) {
        return GraphPolicy{k, seeder, make_refiner(opt_.refiner)};
      });
}

}  // namespace pls::partition
