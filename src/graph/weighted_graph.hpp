#pragma once
// WeightedGraph: the vertex- and edge-weighted undirected graph the
// partitioning algorithms operate on.
//
// The paper's circuit graph is directed (gates → signals), but cut-set and
// refinement gains treat communication symmetrically, so the partitioning
// layer symmetrizes the circuit: an edge {u,v} with weight w aggregates all
// directed signal connections between u and v.  Vertex weights carry the
// number of original gates a coarsened globule represents (paper §3,
// coarsening phase).
//
// Every constructor goes through one CSR builder: a degree count over the
// directed edges, a fill of both directions at the counted offsets, then a
// sort of each row by neighbour and an in-place merge of equal neighbours.
// Rows come out ascending, with parallel and reverse edges summed and
// self-loops dropped.

#include <cstdint>
#include <span>
#include <tuple>
#include <vector>

#include "circuit/circuit.hpp"

namespace pls::graph {

using VertexId = std::uint32_t;

struct Edge {
  VertexId to;
  std::uint32_t weight;
};

/// Sort each CSR row (edges[off[v] .. off[v+1])) by neighbour and merge
/// equal neighbours in place, summing their weights; `off` and `edges`
/// shrink to the merged rows.
void merge_rows(std::vector<std::uint32_t>& off, std::vector<Edge>& edges);

class WeightedGraph {
 public:
  WeightedGraph() = default;

  /// Build from an explicit edge list (u,v,w); parallel edges are merged by
  /// summing weights, self-loops dropped.  `vertex_weights` defines the
  /// vertex count.
  WeightedGraph(std::vector<std::uint32_t> vertex_weights,
                std::span<const std::tuple<VertexId, VertexId, std::uint32_t>>
                    edges);

  /// Symmetrize directed rows: vertex u's out-edges are
  /// out[row_off[u] .. row_off[u+1]), in any order.  Merged like the edge
  /// list.  Offsets that do not frame `out` or an out-of-range neighbour
  /// throw util::CheckError.
  WeightedGraph(std::vector<std::uint32_t> vertex_weights,
                std::span<const std::uint32_t> row_off,
                std::span<const Edge> out);

  /// Symmetrized view of a frozen circuit: one vertex per gate (weight 1),
  /// one undirected edge per connected gate pair (weight = number of
  /// directed connections between them).
  static WeightedGraph from_circuit(const circuit::Circuit& c);

  std::size_t num_vertices() const noexcept { return vweight_.size(); }
  std::size_t num_edges() const noexcept { return edge_count_; }

  std::uint32_t vertex_weight(VertexId v) const { return vweight_.at(v); }
  std::uint64_t total_vertex_weight() const noexcept { return total_weight_; }

  /// v's neighbours, ascending, each once.
  std::span<const Edge> neighbors(VertexId v) const {
    return {adj_.data() + off_.at(v), off_.at(v + 1) - off_.at(v)};
  }

  /// Sum of weights of edges incident to v.
  std::uint64_t weighted_degree(VertexId v) const;

 private:
  /// The CSR builder.  `each(f)` calls f(u, v, w) once per directed edge,
  /// in the same order on both of its calls; the first call also
  /// range-checks.
  template <class EachEdge>
  void build_csr(EachEdge each);

  std::vector<std::uint32_t> vweight_;
  std::uint64_t total_weight_ = 0;
  std::vector<std::uint32_t> off_;
  std::vector<Edge> adj_;
  std::size_t edge_count_ = 0;  // undirected edges after merging
};

}  // namespace pls::graph
