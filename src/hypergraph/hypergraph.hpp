#pragma once
// Hypergraph: the exact communication structure of a circuit.
//
// The pairwise WeightedGraph the paper partitions symmetrizes multi-fanout
// nets into cliques of 2-pin edges, which double-counts their cut: a gate
// driving f sinks in one foreign part pays f graph edges but only one
// inter-node message per transition.  A hypergraph models the net as a
// single hyperedge whose pins are the driver and all its sinks, so the
// connectivity-1 (λ−1) objective counts exactly the Time Warp messages one
// signal transition generates — the quantity partition::comm_volume reports
// as a side statistic and this subsystem optimizes directly.
//
// Layout is CSR in both directions (net → pins, vertex → incident nets):
// two offset arrays and two flat id arrays, so traversals in the coarsener
// and FM refiner are contiguous scans with no per-net allocation.

#include <cstdint>
#include <span>
#include <vector>

#include "circuit/circuit.hpp"
#include "graph/weighted_graph.hpp"
#include "multilevel/weights.hpp"

namespace pls::hypergraph {

using VertexId = std::uint32_t;
using NetId = std::uint32_t;

class Hypergraph {
 public:
  Hypergraph() = default;

  /// Build from an explicit net list.  Within each net, duplicate pins are
  /// merged; single-pin nets are dropped (they can never be cut).
  /// `vertex_weights` defines the vertex count; `net_weights` defaults to
  /// all-1 and is indexed like `nets`.
  Hypergraph(std::vector<std::uint32_t> vertex_weights,
             const std::vector<std::vector<VertexId>>& nets,
             const std::vector<std::uint32_t>& net_weights = {});

  /// One vertex per gate (weight 1); one hyperedge per driving gate's
  /// fanout net, pins = {driver} ∪ fanouts(driver).  Gates with no fanout
  /// (or whose only sink is themselves) contribute no net.
  static Hypergraph from_circuit(const circuit::Circuit& c);

  /// Activity-weighted variant: vertex weights carry per-gate work and
  /// each net's weight is its driver's traffic weight, so λ−1 counts
  /// events per unit time instead of distinct cut nets.  nullptr falls
  /// back to unit weights.
  static Hypergraph from_circuit(const circuit::Circuit& c,
                                 const multilevel::VertexTrafficWeights* w);

  /// The 2-pin view of a graph: g's vertex weights, and one net {u, v} per
  /// undirected edge (u < v, in row order) weighted like the edge.  A
  /// 2-pin net's λ−1 is its edge's cut, so connectivity_minus_one on the
  /// view is partition::edge_cut on g.
  static Hypergraph from_graph(const graph::WeightedGraph& g);

  /// Adopt a ready net → pins CSR (net e's pins are
  /// pins[net_off[e] .. net_off[e+1])) without copying or re-sorting it.
  /// Every net must already hold >= 2 sorted, duplicate-free, in-range
  /// pins; violations throw util::CheckError.
  static Hypergraph from_csr(std::vector<std::uint32_t> vertex_weights,
                             std::vector<std::uint32_t> net_off,
                             std::vector<VertexId> pins,
                             std::vector<std::uint32_t> net_weights);

  std::size_t num_vertices() const noexcept { return vweight_.size(); }
  std::size_t num_nets() const noexcept { return net_weight_.size(); }
  std::size_t num_pins() const noexcept { return pins_.size(); }

  std::uint32_t vertex_weight(VertexId v) const { return vweight_.at(v); }
  std::uint64_t total_vertex_weight() const noexcept { return total_weight_; }
  std::uint32_t net_weight(NetId e) const { return net_weight_.at(e); }

  /// Pins of net e, sorted ascending, duplicate-free.
  std::span<const VertexId> pins(NetId e) const {
    return {pins_.data() + net_off_.at(e), net_off_.at(e + 1) - net_off_.at(e)};
  }

  /// Nets incident to vertex v (every net that has v as a pin).
  std::span<const NetId> nets(VertexId v) const {
    return {incident_.data() + vtx_off_.at(v),
            vtx_off_.at(v + 1) - vtx_off_.at(v)};
  }

  /// Sum of net weights over nets incident to v — the largest possible
  /// λ−1 change a single move of v can cause (bounds FM gains).
  std::uint64_t weighted_degree(VertexId v) const;

  /// The validated CSR arrays, unchecked, for hot loops that would
  /// otherwise pay the accessors' bounds checks on every element.  Valid
  /// while the hypergraph lives; ids must be in range.
  struct Csr {
    const std::uint32_t* net_off;
    const VertexId* pin;
    const std::uint32_t* net_weight;
    const std::uint32_t* vtx_off;
    const NetId* incident;
    const std::uint32_t* vertex_weight;

    std::span<const VertexId> pins(NetId e) const {
      return {pin + net_off[e], pin + net_off[e + 1]};
    }
    std::span<const NetId> nets(VertexId v) const {
      return {incident + vtx_off[v], incident + vtx_off[v + 1]};
    }
  };
  Csr csr() const noexcept {
    return {net_off_.data(), pins_.data(),    net_weight_.data(),
            vtx_off_.data(), incident_.data(), vweight_.data()};
  }

 private:
  void build_incidence();

  std::vector<std::uint32_t> vweight_;
  std::uint64_t total_weight_ = 0;

  // net → pins (CSR)
  std::vector<std::uint32_t> net_off_;
  std::vector<VertexId> pins_;
  std::vector<std::uint32_t> net_weight_;

  // vertex → incident nets (CSR)
  std::vector<std::uint32_t> vtx_off_;
  std::vector<NetId> incident_;
};

}  // namespace pls::hypergraph
