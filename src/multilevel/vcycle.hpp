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
//   initial(graph, contains_input) -> partition::Partition
//   refine(graph, p)  -> void, refines p in place
//   quality(graph, p) -> std::uint64_t, the pipeline's objective (edge cut
//                        / λ−1); only called when tracing
// Hier requirements: `base` (finest graph), `levels` (each with its
// `graph` and the `parent_map` into it), coarsest(),
// coarsest_contains_input(); a graph has num_vertices().
//
// Call order is part of the contract: policies draw per-phase RNG seeds
// from a sequential seeder, so the template performs exactly one initial()
// and then one refine() per level, coarsest first — reordering would
// silently change every seeded partition.
//
// check_hierarchy_invariants() validates either hierarchy the same way; it
// reads each level's `graph`, `parent_map` and `contains_input`.

#include <algorithm>
#include <cstdint>
#include <vector>

#include "partition/partition.hpp"
#include "util/check.hpp"

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

/// Validate the paper's structural invariants of a hierarchy: parent maps
/// are total and in range, every coarse vertex has members and weighs
/// their weights' sum, and no coarse vertex combines two primary inputs
/// (its contains_input flag says whether it holds one).  Throws
/// util::CheckError on the first violation (used by tests).
template <class Hier>
void check_hierarchy_invariants(const Hier& h) {
  const auto* fine = &h.base;
  const std::vector<std::uint8_t>* fine_inputs = &h.base_contains_input;
  for (std::size_t li = 0; li < h.levels.size(); ++li) {
    const auto& lvl = h.levels[li];
    PLS_CHECK_MSG(lvl.parent_map.size() == fine->num_vertices(),
                  "level " << li << " parent map incomplete");
    std::vector<std::uint64_t> wsum(lvl.graph.num_vertices(), 0);
    std::vector<std::uint32_t> input_members(lvl.graph.num_vertices(), 0);
    for (std::uint32_t v = 0; v < fine->num_vertices(); ++v) {
      const std::uint32_t p = lvl.parent_map[v];
      PLS_CHECK_MSG(p < lvl.graph.num_vertices(),
                    "level " << li << " parent out of range");
      wsum[p] += fine->vertex_weight(v);
      input_members[p] += (*fine_inputs)[v] ? 1 : 0;
    }
    for (std::uint32_t g = 0; g < lvl.graph.num_vertices(); ++g) {
      PLS_CHECK_MSG(wsum[g] == lvl.graph.vertex_weight(g),
                    "level " << li << " globule " << g
                             << " weight mismatch: members sum to " << wsum[g]
                             << ", the level says "
                             << lvl.graph.vertex_weight(g));
      PLS_CHECK_MSG(wsum[g] > 0, "level " << li << " empty globule " << g);
      PLS_CHECK_MSG(input_members[g] <= 1,
                    "level " << li << " globule " << g << " combines "
                             << input_members[g] << " primary inputs");
      PLS_CHECK_MSG((lvl.contains_input[g] != 0) == (input_members[g] == 1),
                    "level " << li << " globule " << g
                             << " contains_input flag inconsistent");
    }
    fine = &lvl.graph;
    fine_inputs = &lvl.contains_input;
  }
}

template <class Hier, class Policy>
partition::Partition run_vcycle(const Hier& h, Policy&& pol, Trace* trace) {
  if (trace != nullptr) {
    trace->level_sizes.clear();
    trace->quality_after_level.clear();
    for (const auto& lvl : h.levels) {
      trace->level_sizes.push_back(lvl.graph.num_vertices());
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
    const auto& gfine = i == 0 ? h.base : h.levels[i - 1].graph;
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
