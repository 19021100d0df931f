#include "hypergraph/hypergraph.hpp"

#include <algorithm>
#include <numeric>

#include "util/check.hpp"

namespace pls::hypergraph {

Hypergraph::Hypergraph(std::vector<std::uint32_t> vertex_weights,
                       const std::vector<std::vector<VertexId>>& nets,
                       const std::vector<std::uint32_t>& net_weights)
    : vweight_(std::move(vertex_weights)) {
  PLS_CHECK_MSG(net_weights.empty() || net_weights.size() == nets.size(),
                "net_weights must be empty or match the net count");
  total_weight_ = std::accumulate(vweight_.begin(), vweight_.end(),
                                  std::uint64_t{0});

  net_off_.push_back(0);
  std::vector<VertexId> scratch;
  for (std::size_t e = 0; e < nets.size(); ++e) {
    scratch.assign(nets[e].begin(), nets[e].end());
    std::sort(scratch.begin(), scratch.end());
    scratch.erase(std::unique(scratch.begin(), scratch.end()), scratch.end());
    if (scratch.size() < 2) continue;  // single-pin nets can never be cut
    for (VertexId v : scratch) {
      PLS_CHECK_MSG(v < vweight_.size(), "pin " << v << " out of range");
      pins_.push_back(v);
    }
    net_off_.push_back(static_cast<std::uint32_t>(pins_.size()));
    net_weight_.push_back(net_weights.empty() ? 1 : net_weights[e]);
  }
  build_incidence();
}

Hypergraph Hypergraph::from_circuit(const circuit::Circuit& c) {
  return from_circuit(c, nullptr);
}

Hypergraph Hypergraph::from_circuit(const circuit::Circuit& c,
                                    const multilevel::VertexTrafficWeights* w) {
  PLS_CHECK_MSG(c.frozen(), "from_circuit requires a frozen circuit");
  const std::size_t n = c.size();
  if (w != nullptr) {
    PLS_CHECK_MSG(w->vertex.size() == n && w->traffic.size() == n,
                  "weights must cover every gate");
  }
  Hypergraph hg;
  if (w != nullptr) {
    hg.vweight_.assign(w->vertex.begin(), w->vertex.end());
  } else {
    hg.vweight_.assign(n, 1);
  }
  hg.total_weight_ = std::accumulate(hg.vweight_.begin(), hg.vweight_.end(),
                                     std::uint64_t{0});

  hg.net_off_.push_back(0);
  std::vector<VertexId> scratch;
  for (circuit::GateId g = 0; g < n; ++g) {
    const auto outs = c.fanouts(g);
    if (outs.empty()) continue;
    scratch.clear();
    scratch.push_back(g);
    scratch.insert(scratch.end(), outs.begin(), outs.end());
    std::sort(scratch.begin(), scratch.end());
    scratch.erase(std::unique(scratch.begin(), scratch.end()), scratch.end());
    if (scratch.size() < 2) continue;  // self-loop only (DFF feeding itself)
    hg.pins_.insert(hg.pins_.end(), scratch.begin(), scratch.end());
    hg.net_off_.push_back(static_cast<std::uint32_t>(hg.pins_.size()));
    hg.net_weight_.push_back(w != nullptr ? w->traffic[g] : 1);
  }
  hg.build_incidence();
  return hg;
}

Hypergraph Hypergraph::from_graph(const graph::WeightedGraph& g) {
  const std::size_t n = g.num_vertices();
  Hypergraph hg;
  hg.vweight_.resize(n);
  for (graph::VertexId v = 0; v < n; ++v) hg.vweight_[v] = g.vertex_weight(v);
  hg.total_weight_ = g.total_vertex_weight();

  // Rows are ascending, merged and free of self-loops, so each edge's
  // (u, v) with u < v is already a sorted, distinct 2-pin net.
  hg.net_off_.reserve(g.num_edges() + 1);
  hg.pins_.reserve(2 * g.num_edges());
  hg.net_weight_.reserve(g.num_edges());
  hg.net_off_.push_back(0);
  for (graph::VertexId u = 0; u < n; ++u) {
    for (const graph::Edge& e : g.neighbors(u)) {
      if (e.to <= u) continue;
      hg.pins_.push_back(u);
      hg.pins_.push_back(e.to);
      hg.net_off_.push_back(static_cast<std::uint32_t>(hg.pins_.size()));
      hg.net_weight_.push_back(e.weight);
    }
  }
  hg.build_incidence();
  return hg;
}

Hypergraph Hypergraph::from_csr(std::vector<std::uint32_t> vertex_weights,
                                std::vector<std::uint32_t> net_off,
                                std::vector<VertexId> pins,
                                std::vector<std::uint32_t> net_weights) {
  PLS_CHECK_MSG(net_off.size() == net_weights.size() + 1 &&
                    net_off.front() == 0 && net_off.back() == pins.size(),
                "net offsets must frame the pin array, one net per weight");
  for (std::size_t e = 0; e < net_weights.size(); ++e) {
    PLS_CHECK_MSG(net_off[e] + 2 <= net_off[e + 1],
                  "net " << e << " has fewer than two pins");
    for (std::uint32_t i = net_off[e]; i < net_off[e + 1]; ++i) {
      PLS_CHECK_MSG(pins[i] < vertex_weights.size() &&
                        (i == net_off[e] || pins[i - 1] < pins[i]),
                    "net " << e << " pins must be sorted, distinct and in "
                              "range");
    }
  }
  Hypergraph hg;
  hg.vweight_ = std::move(vertex_weights);
  hg.total_weight_ = std::accumulate(hg.vweight_.begin(), hg.vweight_.end(),
                                     std::uint64_t{0});
  hg.net_off_ = std::move(net_off);
  hg.pins_ = std::move(pins);
  hg.net_weight_ = std::move(net_weights);
  hg.build_incidence();
  return hg;
}

void Hypergraph::build_incidence() {
  const std::size_t n = vweight_.size();
  vtx_off_.assign(n + 1, 0);
  for (VertexId v : pins_) ++vtx_off_[v + 1];
  for (std::size_t v = 1; v <= n; ++v) vtx_off_[v] += vtx_off_[v - 1];
  incident_.resize(pins_.size());
  std::vector<std::uint32_t> cursor(vtx_off_.begin(), vtx_off_.end() - 1);
  for (NetId e = 0; e < num_nets(); ++e) {
    for (VertexId v : pins(e)) incident_[cursor[v]++] = e;
  }
}

std::uint64_t Hypergraph::weighted_degree(VertexId v) const {
  std::uint64_t d = 0;
  for (NetId e : nets(v)) d += net_weight_[e];
  return d;
}

}  // namespace pls::hypergraph
