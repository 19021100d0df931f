#pragma once
// Coarsening phase of the multilevel hypergraph partitioner.
//
// Mirrors the structure of partition/coarsen.hpp (globule hierarchy,
// per-globule weight caps, the primary-input separation rule) but matches
// vertices by *pin similarity* instead of walking fanout: two vertices are
// good merge candidates when they share many light nets, scored by the
// classic heavy-edge rating Σ_{e ∋ u,v} w(e)/(|e|−1).  Contracting such a
// pair removes those nets' pins from the cut frontier without inflating
// any net, which is what makes the coarse levels faithful proxies for the
// λ−1 objective.
//
// Contraction maps every net's pins through the match, merges duplicate
// pins, drops single-pin nets, and folds *identical* nets together by
// summing their weights — on circuit hypergraphs many fanout nets collapse
// to the same pin set after one level, so this keeps levels small.  It
// writes the coarse CSR in one pass (Hypergraph::from_csr, no per-net
// vectors and no re-sort) and finds an identical earlier net through a
// flat linear-probe table of net ids keyed by a hash of the pins.  Coarse
// nets keep the order in which their first fine net appears, so the
// hierarchy does not depend on the table.

#include <cstdint>
#include <vector>

#include "circuit/circuit.hpp"
#include "hypergraph/hypergraph.hpp"
#include "multilevel/weights.hpp"

namespace pls::hypergraph {

struct HgCoarsenOptions {
  /// Stop once the vertex count is <= threshold. 0 = caller default (64).
  std::size_t threshold = 64;
  /// Hierarchy depth cap: a guard, the threshold normally stops
  /// coarsening first.
  static constexpr std::size_t max_levels = 64;
  std::uint64_t seed = 1;
  /// Largest weight a single globule may reach (0 = unlimited); same role
  /// as CoarsenOptions::max_globule_weight.
  std::uint64_t max_globule_weight = 0;
  /// Nets with more pins than this are ignored when rating matches (they
  /// are almost never removable from the cut, and rating them is O(|e|²)).
  static constexpr std::size_t rating_pin_limit = 64;
  /// Optional activity-derived weights: H0 is built with per-gate work
  /// vertex weights and per-driver traffic net weights (see
  /// Hypergraph::from_circuit).  Must outlive the coarsen() call; nullptr
  /// means unit weights.
  const multilevel::VertexTrafficWeights* weights = nullptr;
};

/// One coarse level derived from the level above it.
struct HgCoarseLevel {
  Hypergraph graph;
  std::vector<std::uint32_t> parent_map;  ///< finer vertex -> this level's
  std::vector<std::uint8_t> contains_input;
  std::size_t merged_globules = 0;  ///< globules formed by >=2 members
};

/// The multilevel hierarchy: base H0 plus H1 … Hm.
struct HgHierarchy {
  Hypergraph base;
  std::vector<std::uint8_t> base_contains_input;
  std::vector<HgCoarseLevel> levels;

  const Hypergraph& coarsest() const {
    return levels.empty() ? base : levels.back().graph;
  }
  const std::vector<std::uint8_t>& coarsest_contains_input() const {
    return levels.empty() ? base_contains_input
                          : levels.back().contains_input;
  }
};

/// Build the hierarchy for a frozen circuit (base = from_circuit).
HgHierarchy coarsen(const circuit::Circuit& c, const HgCoarsenOptions& opt);

}  // namespace pls::hypergraph
