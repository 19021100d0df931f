#include "graph/weighted_graph.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace pls::graph {

void merge_rows(std::vector<std::uint32_t>& off, std::vector<Edge>& edges) {
  // A row never writes past its own read position, and off[v + 1] is
  // still the old end when row v is read.
  std::uint32_t write = 0;
  for (std::size_t v = 0; v + 1 < off.size(); ++v) {
    Edge* const first = edges.data() + off[v];
    Edge* const last = edges.data() + off[v + 1];
    std::sort(first, last,
              [](const Edge& a, const Edge& b) { return a.to < b.to; });
    off[v] = write;
    for (const Edge* e = first; e != last; ++e) {
      if (write > off[v] && edges[write - 1].to == e->to) {
        edges[write - 1].weight += e->weight;
      } else {
        edges[write++] = *e;
      }
    }
  }
  off.back() = write;
  edges.resize(write);
}

template <class EachEdge>
void WeightedGraph::build_csr(EachEdge each) {
  for (auto w : vweight_) total_weight_ += w;
  const auto n = vweight_.size();

  // Degree count: every non-loop edge lands in both endpoints' rows.
  off_.assign(n + 1, 0);
  each([&](VertexId u, VertexId v, std::uint32_t) {
    PLS_CHECK_MSG(u < n && v < n, "edge endpoint out of range");
    if (u == v) return;
    ++off_[u + 1];
    ++off_[v + 1];
  });
  for (std::size_t i = 1; i <= n; ++i) off_[i] += off_[i - 1];

  adj_.resize(off_[n]);
  std::vector<std::uint32_t> cursor(off_.begin(), off_.end() - 1);
  each([&](VertexId u, VertexId v, std::uint32_t w) {
    if (u == v) return;
    adj_[cursor[u]++] = Edge{v, w};
    adj_[cursor[v]++] = Edge{u, w};
  });

  merge_rows(off_, adj_);
  edge_count_ = adj_.size() / 2;  // each undirected edge sits in two rows
}

WeightedGraph::WeightedGraph(
    std::vector<std::uint32_t> vertex_weights,
    std::span<const std::tuple<VertexId, VertexId, std::uint32_t>> edges)
    : vweight_(std::move(vertex_weights)) {
  build_csr([&](auto&& f) {
    for (const auto& [u, v, w] : edges) f(u, v, w);
  });
}

WeightedGraph::WeightedGraph(std::vector<std::uint32_t> vertex_weights,
                             std::span<const std::uint32_t> row_off,
                             std::span<const Edge> out)
    : vweight_(std::move(vertex_weights)) {
  const std::size_t n = vweight_.size();
  PLS_CHECK_MSG(row_off.size() == n + 1 && row_off.front() == 0 &&
                    row_off.back() == out.size(),
                "row offsets must frame the out-edge array, one row per "
                "vertex");
  for (std::size_t u = 0; u < n; ++u) {
    PLS_CHECK_MSG(row_off[u] <= row_off[u + 1],
                  "row offsets must not decrease");
  }
  build_csr([&](auto&& f) {
    for (std::size_t u = 0; u < n; ++u) {
      for (std::uint32_t i = row_off[u]; i < row_off[u + 1]; ++i) {
        f(static_cast<VertexId>(u), out[i].to, out[i].weight);
      }
    }
  });
}

WeightedGraph WeightedGraph::from_circuit(const circuit::Circuit& c) {
  PLS_CHECK_MSG(c.frozen(), "from_circuit requires a frozen circuit");
  WeightedGraph g;
  g.vweight_.assign(c.size(), 1);
  g.build_csr([&](auto&& f) {
    for (circuit::GateId gate = 0; gate < c.size(); ++gate) {
      for (circuit::GateId in : c.fanins(gate)) {
        f(static_cast<VertexId>(in), static_cast<VertexId>(gate), 1u);
      }
    }
  });
  return g;
}

std::uint64_t WeightedGraph::weighted_degree(VertexId v) const {
  std::uint64_t d = 0;
  for (const Edge& e : neighbors(v)) d += e.weight;
  return d;
}

}  // namespace pls::graph
