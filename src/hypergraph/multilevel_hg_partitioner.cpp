#include "hypergraph/multilevel_hg_partitioner.hpp"

#include <algorithm>

#include "hypergraph/initial.hpp"
#include "hypergraph/metrics.hpp"
#include "partition/multilevel_partitioner.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace pls::hypergraph {
namespace {

/// Hypergraph instantiation of the shared V-cycle (multilevel/vcycle.hpp):
/// BFS-grown initial partitioning and λ−1 FM refinement, with λ−1 as the
/// traced quality.
struct HgPolicy {
  std::uint32_t k;
  const MultilevelHGOptions& opt;
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
    ropt.balance_tol = partition::MultilevelOptions::balance_tol;
    ropt.max_iters = opt.refine_iters;
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
  PLS_CHECK(k >= 1);
  if (k == 1) return multilevel::single_part(c.size(), trace);
  util::SplitMix64 seeder(seed);

  // ---- Phase 1: heavy-pin coarsening ----------------------------------
  HgCoarsenOptions copt;
  copt.threshold = std::max<std::size_t>(std::size_t{8} * k, 128);
  copt.seed = seeder.next();
  copt.weights = opt_.weights;
  // Same cap policy as the graph pipeline: a quarter of the ideal per-part
  // work load, so the initial phase can balance and FM retains movable
  // units.
  const std::uint64_t total_work =
      opt_.weights != nullptr ? opt_.weights->total_vertex_weight()
                              : static_cast<std::uint64_t>(c.size());
  copt.max_globule_weight =
      std::max<std::uint64_t>(1, total_work / (std::uint64_t{4} * k));
  const HgHierarchy h = coarsen(c, copt);

  // ---- Phases 2+3: the shared V-cycle ---------------------------------
  HgPolicy pol{k, opt_, seeder};

  // Uniform weights cannot change any decision, so the plain V-cycle
  // reproduces the unweighted partition bit-identically; real weights get
  // the best-of-two guided cycle (see multilevel/vcycle.hpp).
  partition::Partition p;
  if (opt_.weights == nullptr || opt_.weights->uniform()) {
    p = multilevel::run_vcycle(h, pol, trace);
  } else {
    // Candidate B replays the unweighted run's exact seed chain, so the
    // guided result can only improve on today's unweighted partition.
    util::SplitMix64 useeder(seed);
    HgCoarsenOptions ucopt = copt;
    ucopt.weights = nullptr;
    ucopt.seed = useeder.next();
    ucopt.max_globule_weight = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(c.size()) / (std::uint64_t{4} * k));
    const HgHierarchy hu = coarsen(c, ucopt);
    HgPolicy upol{k, opt_, useeder};
    p = multilevel::run_guided_vcycle(h, hu, pol, upol, trace);
  }
  p.validate(c.size());
  return p;
}

}  // namespace pls::hypergraph
