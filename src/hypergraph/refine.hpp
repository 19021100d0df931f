#pragma once
// k-way FM refinement on the connectivity-1 (λ−1) objective.
//
// The mover maintains, for every net, the number of its pins in each part
// (the Φ(e,q) table).  Moving v from part a to part b changes λ−1 by
//   Σ_{e ∋ v}  w(e) · ( [Φ(e,a)==1]  −  [Φ(e,b)==0] )
// — a net gains when v is its last pin in a (part a leaves the net's span)
// and loses when v is its first pin in b.  This is the exact objective the
// Time Warp layer pays per signal transition, unlike graph refinement
// which optimizes the symmetrized-clique proxy.  It is also the repo's
// only FM: graph Multilevel's FM refiner (partition/refine_fm.cpp) runs it
// on a level graph's 2-pin view (Hypergraph::from_graph), where a net's
// λ−1 is its edge's cut.
//
// Gains are read from a per-vertex k-way table kept exact across moves:
//   conn[u·k+q] = Σ w(e) over u's nets with a pin in part q (so the column
//                 of u's own part is its weighted degree), and
//   freed[u]    = Σ w(e) over u's nets where u is the only pin in its part,
// so gain(v: a → b) = freed[v] − conn[v·k+a] + conn[v·k+b].  A move
// touches the table only where a Φ count crosses a threshold:
//   Φ(e,a) 1→0, Φ(e,b) 0→1  column a / b of every pin of e (the span
//                           changed);
//   Φ(e,a) 2→1              the last pin left in a becomes sole;
//   Φ(e,b) 1→2              b's former sole pin no longer is.
// A vertex is bucketed at its key, freed − conn[home] + max_{q≠home}
// conn[q], its best gain over all targets.  Keys live in a per-vertex
// cache kept exact by every move and rollback step, wherever the step
// changes a conn row, a freed entry or a home part, so filling and
// refreshing the buckets reads the cache.  Only the pop that moves a
// vertex scans its row for the target under (gain ↓, load ↑, id ↑): O(k),
// independent of its degree and of how many parts its nets span.
//
// Moves are selected from gain buckets (an array of vectors indexed by
// gain, with lazy invalidation stamps), FM-style: zero- and negative-gain
// moves are allowed during a pass, each pass keeps a move log and rolls
// back to the best cumulative-gain prefix, and every moved vertex is
// locked for the rest of the pass.  Committed passes therefore never
// increase λ−1 and always respect the balance limit.

#include <cstdint>

#include "hypergraph/hypergraph.hpp"
#include "partition/partition.hpp"

namespace pls::hypergraph {

// Refinement is fully deterministic (vertices enter the buckets in index
// order and ties break on load), so there is no seed knob.
struct HgRefineOptions {
  /// A move is feasible only if the destination stays at or below
  /// ceil(W/k)·(1+balance_tol).
  double balance_tol = 0.10;
  std::uint32_t max_iters = 8;
};

struct HgRefineResult {
  std::uint64_t moves = 0;
  std::uint64_t iterations = 0;
  std::uint64_t lambda_before = 0;  ///< λ−1 volume entering refinement
  std::uint64_t lambda_after = 0;
};

/// Refine `p` in place.  Never increases connectivity_minus_one(hg, p).
HgRefineResult refine_fm(const Hypergraph& hg, partition::Partition& p,
                         const HgRefineOptions& opt);

}  // namespace pls::hypergraph
