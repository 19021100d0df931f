#pragma once
// The shared V-cycle: coarsen-once, then initial-partition the coarsest
// level and refine at every level while projecting downward (paper §3).
//
// Both partitioners — "Multilevel" on the symmetrized graph and
// "MultilevelHG" on the circuit hypergraph — are instantiations of
// run_vcycle() below over their own hierarchy/graph types.  The policy
// object supplies the phase implementations; the template owns the
// orchestration that used to be duplicated: trace bookkeeping, the
// coarse-solution projection p_fine[v] = p_coarse[parent_map[v]], and the
// coarsest-to-finest refinement drive.  Anything added here (weighting,
// tracing, alternative cycle shapes) lands in both pipelines at once.
//
// Policy requirements (duck-typed; see MultilevelPartitioner /
// MultilevelHGPartitioner for the two concrete instances):
//   graph(level)      -> the level's graph (level = Hier::levels element)
//   size(graph)       -> vertex count
//   initial(graph, contains_input) -> partition::Partition
//   refine(graph, p)  -> void, refines p in place
//   quality(graph, p) -> std::uint64_t, the pipeline's objective (edge cut
//                        / λ−1); only called when tracing
// Hier requirements: `base` (finest graph), `levels` (each with
// .parent_map into the level), coarsest(), coarsest_contains_input().
//
// Call order is part of the contract: policies draw per-phase RNG seeds
// from a sequential seeder, so the template performs exactly one initial()
// and then one refine() per level, coarsest first — reordering would
// silently change every seeded partition.

#include <algorithm>
#include <cstdint>
#include <vector>

#include "partition/partition.hpp"

namespace pls::multilevel {

/// Per-run diagnostics, shared by both pipelines ("quality" is edge cut
/// for the graph pipeline, λ−1 for the hypergraph pipeline).
struct Trace {
  std::vector<std::size_t> level_sizes;            ///< |V| of G1..Gm
  std::vector<std::uint64_t> quality_after_level;  ///< after refining level i
  std::uint64_t initial_quality = 0;  ///< right after the initial phase
  std::uint64_t final_quality = 0;    ///< on the finest graph
};

/// Project a coarse partition to the next finer level: every member vertex
/// inherits its globule's part — ∀ v ∈ V_ij : P[v] = P[V_ij] (paper §3).
partition::Partition project(const std::vector<std::uint32_t>& parent_map,
                             const partition::Partition& coarse);

/// The k = 1 answer without a hierarchy: every vertex in part 0.  The
/// trace (if any) reports no coarse levels and quality 0 throughout.
partition::Partition single_part(std::size_t n, Trace* trace);

template <class Hier, class Policy>
partition::Partition run_vcycle(const Hier& h, Policy&& pol, Trace* trace) {
  if (trace != nullptr) {
    trace->level_sizes.clear();
    trace->quality_after_level.clear();
    for (const auto& lvl : h.levels) {
      trace->level_sizes.push_back(pol.size(pol.graph(lvl)));
    }
  }

  // ---- Initial k-way partitioning at the coarsest level ----------------
  partition::Partition p =
      pol.initial(h.coarsest(), h.coarsest_contains_input());
  if (trace != nullptr) {
    trace->initial_quality = pol.quality(h.coarsest(), p);
  }

  // ---- Refinement, projecting from the coarsest level down to the base -
  pol.refine(h.coarsest(), p);
  if (trace != nullptr) {
    trace->quality_after_level.push_back(pol.quality(h.coarsest(), p));
  }

  for (std::size_t i = h.levels.size(); i-- > 0;) {
    p = project(h.levels[i].parent_map, p);
    const auto& gfine = i == 0 ? h.base : pol.graph(h.levels[i - 1]);
    pol.refine(gfine, p);
    if (trace != nullptr) {
      trace->quality_after_level.push_back(pol.quality(gfine, p));
    }
  }

  if (trace != nullptr) trace->final_quality = pol.quality(h.base, p);
  return p;
}

/// Activity-guided best-of-two V-cycle.  Two candidates are produced and
/// the one with the lower *weighted* objective on the weighted finest
/// graph wins:
///   A — weights end-to-end: the weighted hierarchy `hw` partitioned as
///       usual (coarsening rates and refinement gains both see traffic).
///   B — structure-first: the unit-weight hierarchy `hu` partitioned as
///       usual, then one weighted refinement pass on hw's finest graph.
/// Both shapes exist because they win on different pipelines: weighted
/// coarsening ratings can distort the hierarchy enough that the weighted
/// optimum's basin is easier to reach from the unweighted solution (B),
/// while fanout-style coarsening is weight-insensitive and profits from
/// weighted refinement at every level (A).  Measured on the s15850
/// stand-in at k=8, the graph pipeline picks A and the hypergraph
/// pipeline picks B; the selection is static, deterministic, and costs
/// one extra partition run — trivial next to the simulation it guides.
///
/// Callers pass `upol` seeded with the *same* chain as a standalone
/// unweighted run, so candidate B equals today's unweighted partition
/// exactly and the guided result's weighted objective provably never
/// regresses against it (refinement never increases the objective;
/// property-tested in multilevel_core_test).
///
/// Known tradeoff: candidate B's coarse phases balance in *unit* gate
/// counts; the weighted refine pass only rejects moves into parts over
/// the weighted limit, it does not evacuate a part the unit phases
/// already overfilled.  A B-win can therefore exceed balance_tol measured
/// in work weights (A cannot — its every phase budgets weighted load).
/// Deliberate: rejecting B outright would discard the lower-traffic
/// partition over a constraint the unweighted baseline also ignores.
/// ROADMAP tracks surfacing the weighted imbalance in DriverResult.
///
/// The trace (if any) follows candidate A's V-cycle; final_quality is
/// re-pointed at whichever candidate is returned.
template <class Hier, class Policy>
partition::Partition run_guided_vcycle(const Hier& hw, const Hier& hu,
                                       Policy&& wpol, Policy&& upol,
                                       Trace* trace) {
  partition::Partition a = run_vcycle(hw, wpol, trace);
  partition::Partition b = run_vcycle(hu, upol, nullptr);
  wpol.refine(hw.base, b);

  const std::uint64_t qa = wpol.quality(hw.base, a);
  const std::uint64_t qb = wpol.quality(hw.base, b);
  partition::Partition chosen = qb < qa ? std::move(b) : std::move(a);
  if (trace != nullptr) trace->final_quality = std::min(qa, qb);
  return chosen;
}

}  // namespace pls::multilevel
