#include "hypergraph/multilevel_hg_partitioner.hpp"

#include <algorithm>

#include "hypergraph/initial.hpp"
#include "hypergraph/metrics.hpp"
#include "util/rng.hpp"

namespace pls::hypergraph {
namespace {

/// Hypergraph instantiation of the shared V-cycle (multilevel/vcycle.hpp):
/// BFS-grown initial partitioning and λ−1 FM refinement, with λ−1 as the
/// traced quality.
struct HgPolicy {
  std::uint32_t k;
  util::SplitMix64& seeder;

  partition::Partition initial(
      const Hypergraph& hg, const std::vector<std::uint8_t>& contains_input) {
    HgInitialOptions iopt;
    iopt.k = k;
    iopt.seed = seeder.next();
    return initial_partition(hg, contains_input, iopt);
  }
  void refine(const Hypergraph& hg, partition::Partition& p) {
    HgRefineOptions ropt;
    ropt.balance_tol = multilevel::kBalanceTol;
    ropt.max_iters = multilevel::kRefinePasses;
    refine_fm(hg, p, ropt);
  }
  std::uint64_t quality(const Hypergraph& hg,
                        const partition::Partition& p) const {
    return connectivity_minus_one(hg, p);
  }
};

}  // namespace

partition::Partition MultilevelHGPartitioner::run(const circuit::Circuit& c,
                                                  std::uint32_t k,
                                                  std::uint64_t seed) const {
  return run_traced(c, k, seed, nullptr);
}

partition::Partition MultilevelHGPartitioner::run_traced(
    const circuit::Circuit& c, std::uint32_t k, std::uint64_t seed,
    MultilevelHGTrace* trace) const {
  // Heavy-pin coarsening stops at max(8k, 128) vertices; the driver owns
  // the rest (multilevel/vcycle.hpp).
  return multilevel::partition_circuit(
      c, k, seed, opt_.weights, trace,
      [&](const multilevel::VertexTrafficWeights* weights,
          std::uint64_t coarsen_seed, std::uint64_t cap) {
        HgCoarsenOptions copt;
        copt.threshold = std::max<std::size_t>(std::size_t{8} * k, 128);
        copt.seed = coarsen_seed;
        copt.max_globule_weight = cap;
        copt.weights = weights;
        return coarsen(c, copt);
      },
      [&](util::SplitMix64& seeder) { return HgPolicy{k, seeder}; });
}

}  // namespace pls::hypergraph
