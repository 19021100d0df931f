// k-way Fiduccia–Mattheyses refinement for graph Multilevel (baseline;
// paper ref [6]).
//
// The graph pipeline has no FM of its own: it runs the hypergraph FM
// (hypergraph/refine.hpp) on the level graph's 2-pin view, one net per
// undirected edge weighted like the edge, with the graph's vertex weights.
// A 2-pin net's λ−1 is exactly its edge's cut, so on that view the
// hypergraph FM minimizes the edge cut: single-vertex moves from gain
// buckets, zero- and negative-gain moves within a pass, every moved vertex
// locked, and a rollback to the best cumulative-gain prefix.

#include "hypergraph/hypergraph.hpp"
#include "hypergraph/refine.hpp"
#include "partition/refine.hpp"

namespace pls::partition {

RefineResult FiducciaMattheysesRefiner::refine(
    const graph::WeightedGraph& g, Partition& p,
    const RefineOptions& opt) const {
  hypergraph::HgRefineOptions hopt;
  hopt.balance_tol = opt.balance_tol;
  hopt.max_iters = opt.max_iters;
  const hypergraph::HgRefineResult r =
      hypergraph::refine_fm(hypergraph::Hypergraph::from_graph(g), p, hopt);
  return {.moves = r.moves,
          .iterations = r.iterations,
          .cut_before = r.lambda_before,
          .cut_after = r.lambda_after};
}

}  // namespace pls::partition
