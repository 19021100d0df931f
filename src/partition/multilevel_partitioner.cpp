#include "partition/multilevel_partitioner.hpp"

#include <algorithm>

#include "partition/initial.hpp"
#include "partition/metrics.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace pls::partition {
namespace {

/// Graph instantiation of the shared V-cycle (multilevel/vcycle.hpp):
/// spread-the-inputs initial partitioning and the configured seeded
/// refiner, with edge cut as the traced quality.
struct GraphPolicy {
  std::uint32_t k;
  const MultilevelOptions& opt;
  util::SplitMix64& seeder;
  const Refiner& refiner;

  Partition initial(const graph::WeightedGraph& g,
                    const std::vector<std::uint8_t>& contains_input) {
    InitialOptions iopt;
    iopt.k = k;
    iopt.seed = seeder.next();
    iopt.balance_tol = opt.balance_tol;
    return initial_partition(g, contains_input, iopt);
  }
  void refine(const graph::WeightedGraph& g, Partition& p) {
    RefineOptions ropt;
    ropt.balance_tol = opt.balance_tol;
    ropt.max_iters = opt.refine_iters;
    ropt.seed = seeder.next();
    refiner.refine(g, p, ropt);
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
  PLS_CHECK(k >= 1);
  if (k == 1) return multilevel::single_part(c.size(), trace);
  util::SplitMix64 seeder(seed);

  // ---- Phase 1: coarsening to max(4k, 64) globules --------------------
  CoarsenOptions copt;
  copt.threshold = std::max<std::size_t>(std::size_t{4} * k, 64);
  copt.scheme = opt_.scheme;
  copt.seed = seeder.next();
  copt.weights = opt_.weights;
  // Cap globules at a quarter of the ideal per-part load so the initial
  // phase can balance and refinement retains movable units.  "Load" is the
  // total work weight — the gate count when unweighted.
  const std::uint64_t total_work =
      opt_.weights != nullptr ? opt_.weights->total_vertex_weight()
                              : static_cast<std::uint64_t>(c.size());
  copt.max_globule_weight =
      std::max<std::uint64_t>(1, total_work / (std::uint64_t{4} * k));
  const Hierarchy h = coarsen(c, copt);

  // ---- Phases 2+3: the shared V-cycle ---------------------------------
  const auto refiner = make_refiner(opt_.refiner);
  GraphPolicy pol{k, opt_, seeder, *refiner};

  // Uniform weights cannot change any decision, so the plain V-cycle
  // reproduces the unweighted partition bit-identically; real weights get
  // the best-of-two guided cycle (see multilevel/vcycle.hpp).
  Partition p;
  if (opt_.weights == nullptr || opt_.weights->uniform()) {
    p = multilevel::run_vcycle(h, pol, trace);
  } else {
    // Candidate B replays the unweighted run's exact seed chain, so the
    // guided result can only improve on today's unweighted partition.
    util::SplitMix64 useeder(seed);
    CoarsenOptions ucopt = copt;
    ucopt.weights = nullptr;
    ucopt.seed = useeder.next();
    ucopt.max_globule_weight = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(c.size()) / (std::uint64_t{4} * k));
    const Hierarchy hu = coarsen(c, ucopt);
    GraphPolicy upol{k, opt_, useeder, *refiner};
    p = multilevel::run_guided_vcycle(h, hu, pol, upol, trace);
  }
  p.validate(c.size());
  return p;
}

}  // namespace pls::partition
