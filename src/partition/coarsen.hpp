#pragma once
// Coarsening phase of the multilevel algorithm (paper §3, Figure 1).
//
// Produces the hierarchical sequence of graphs G1, G2, …, Gm from the
// original circuit graph G0.  Each vertex of a lower-level graph (a
// "globule") represents a set of connected vertices of the level above.
// Two constraints from the paper are enforced:
//   * a vertex is coarsened at most once per level, and
//   * globules that contain a primary-input vertex are never combined with
//     each other (this preserves concurrency: inputs stay spread out).
// Coarsening halts when the globule count falls below a threshold or when
// no further combination is possible (e.g. all globules are input
// globules).
//
// The default scheme is the paper's *fanout coarsening*: traversal starts
// from the primary inputs and proceeds depth-first; a vertex chosen for
// coarsening is combined with all (still-unmerged, legal) vertices on its
// output signal's fanout.  At levels after the first, traversal starts from
// the globules formed by merging in the previous level.  Alternative
// schemes (paper §6 future work): heavy-edge matching, and activity-
// weighted variants of both (edge weights scaled by profiled gate
// activity).

#include <cstdint>
#include <optional>
#include <vector>

#include "circuit/circuit.hpp"
#include "graph/weighted_graph.hpp"
#include "multilevel/weights.hpp"

namespace pls::partition {

enum class CoarsenScheme {
  kFanout,     ///< the paper's scheme
  kHeavyEdge,  ///< maximal matching on heaviest incident edges
};

struct CoarsenOptions {
  /// Stop once the globule count is <= threshold. 0 = caller default.
  std::size_t threshold = 64;
  /// Hierarchy depth cap: a guard, the threshold normally stops
  /// coarsening first.
  static constexpr std::size_t max_levels = 64;
  CoarsenScheme scheme = CoarsenScheme::kFanout;
  std::uint64_t seed = 1;
  /// Largest weight a single globule may reach (0 = unlimited).  Without a
  /// cap, fanout coarsening along high-fanout control nets produces
  /// globules heavier than a whole partition, making the initial phase's
  /// "load sufficiently balanced" goal unattainable; the multilevel
  /// partitioner sets this to a fraction of the ideal per-part load.
  std::uint64_t max_globule_weight = 0;
  /// Optional activity-derived weights (multilevel/weights.hpp).  When
  /// present, G0's vertex weights carry per-gate work and its edge weights
  /// carry the driver's traffic weight, so the coarsener preferentially
  /// keeps busy signals inside globules and the balance phases budget by
  /// real load (paper §6).  Must outlive the coarsen() call; nullptr means
  /// unit weights.
  const multilevel::VertexTrafficWeights* weights = nullptr;
};

/// One coarse level G_{i+1} derived from the level below it.
struct CoarseLevel {
  graph::WeightedGraph graph;             ///< symmetrized, for refinement
  std::vector<std::uint32_t> parent_map;  ///< finer vertex -> this level's vertex
  std::vector<std::uint8_t> contains_input;  ///< per vertex of this level
  std::size_t merged_globules = 0;  ///< vertices formed by >=2 members
};

/// The full multilevel hierarchy.  levels[0] maps G0's vertices into G1,
/// levels[i] maps G_i's vertices into G_{i+1}.
struct Hierarchy {
  graph::WeightedGraph base;                 ///< G0 (symmetrized circuit)
  std::vector<std::uint8_t> base_contains_input;
  std::vector<CoarseLevel> levels;           ///< G1 … Gm

  const graph::WeightedGraph& coarsest() const {
    return levels.empty() ? base : levels.back().graph;
  }
  const std::vector<std::uint8_t>& coarsest_contains_input() const {
    return levels.empty() ? base_contains_input
                          : levels.back().contains_input;
  }
  std::size_t num_levels() const noexcept { return levels.size(); }
};

/// Build the hierarchy for a frozen circuit.  O(|E|) per level.
Hierarchy coarsen(const circuit::Circuit& c, const CoarsenOptions& opt);

}  // namespace pls::partition
