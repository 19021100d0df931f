// Tests for the symmetrized WeightedGraph used by the partitioning layer.

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <utility>

#include "circuit/circuit.hpp"
#include "graph/weighted_graph.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace pls::graph {
namespace {

using EdgeTuple = std::tuple<VertexId, VertexId, std::uint32_t>;

TEST(WeightedGraph, MergesParallelEdges) {
  std::vector<EdgeTuple> edges{{0, 1, 2}, {1, 0, 3}, {1, 2, 1}};
  WeightedGraph g({1, 1, 1}, edges);
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 2u);  // {0,1} merged, {1,2}
  ASSERT_EQ(g.neighbors(0).size(), 1u);
  EXPECT_EQ(g.neighbors(0)[0].to, 1u);
  EXPECT_EQ(g.neighbors(0)[0].weight, 5u);
  EXPECT_EQ(g.weighted_degree(1), 6u);
}

TEST(WeightedGraph, DropsSelfLoops) {
  std::vector<EdgeTuple> edges{{0, 0, 7}, {0, 1, 1}};
  WeightedGraph g({1, 1}, edges);
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.weighted_degree(0), 1u);
}

TEST(WeightedGraph, VertexWeightsAndTotal) {
  WeightedGraph g({3, 4, 5}, std::vector<EdgeTuple>{});
  EXPECT_EQ(g.vertex_weight(1), 4u);
  EXPECT_EQ(g.total_vertex_weight(), 12u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_TRUE(g.neighbors(0).empty());
}

TEST(WeightedGraph, AdjacencyIsSymmetric) {
  std::vector<EdgeTuple> edges{{0, 1, 1}, {1, 2, 2}, {0, 2, 3}};
  WeightedGraph g({1, 1, 1}, edges);
  for (VertexId v = 0; v < 3; ++v) {
    for (const Edge& e : g.neighbors(v)) {
      bool back = false;
      for (const Edge& r : g.neighbors(e.to)) {
        back |= (r.to == v && r.weight == e.weight);
      }
      EXPECT_TRUE(back) << "edge " << v << "->" << e.to << " not mirrored";
    }
  }
}

TEST(WeightedGraph, OutOfRangeEdgeThrows) {
  std::vector<EdgeTuple> edges{{0, 9, 1}};
  EXPECT_THROW(WeightedGraph({1, 1}, edges), pls::util::CheckError);
}

TEST(WeightedGraph, FromCircuitCountsDirectedPairs) {
  // a feeds g twice (XOR(a,a)): symmetrized weight 2.
  circuit::Circuit c;
  const auto a = c.add_input("a");
  const auto b = c.add_input("b");
  const auto g = c.add_gate("g", circuit::GateType::kXor, {a, a});
  c.add_gate("h", circuit::GateType::kAnd, {g, b});
  c.freeze();
  const WeightedGraph wg = WeightedGraph::from_circuit(c);
  EXPECT_EQ(wg.num_vertices(), 4u);
  EXPECT_EQ(wg.total_vertex_weight(), 4u);
  bool found = false;
  for (const Edge& e : wg.neighbors(a)) {
    if (e.to == g) {
      EXPECT_EQ(e.weight, 2u);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(WeightedGraph, FromCircuitRequiresFrozen) {
  circuit::Circuit c;
  c.add_input("a");
  EXPECT_THROW(WeightedGraph::from_circuit(c), pls::util::CheckError);
}

TEST(WeightedGraph, EmptyGraphIsUsable) {
  WeightedGraph g;
  EXPECT_EQ(g.num_vertices(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_EQ(g.total_vertex_weight(), 0u);
}

TEST(WeightedGraph, CsrBuilderMatchesSortedEdgeListReference) {
  // Random directed rows with duplicate targets, both directions of a
  // pair, self-loops, empty rows and isolated vertices, through both
  // constructors, against the (min, max, w) edge list sorted and merged.
  util::Rng rng(11);
  for (int t = 0; t < 200; ++t) {
    const std::size_t n = 1 + rng.below(60);
    std::vector<std::uint32_t> vweights(n);
    for (auto& w : vweights) w = static_cast<std::uint32_t>(1 + rng.below(5));
    std::vector<std::uint32_t> off{0};
    std::vector<Edge> out;
    std::vector<EdgeTuple> edges;
    const std::size_t span = 1 + rng.below(n);  // higher ids stay isolated
    for (VertexId u = 0; u < n; ++u) {
      const std::size_t deg = rng.below(4) == 0 ? 0 : rng.below(9);
      for (std::size_t i = 0; i < deg && u < span; ++i) {
        const auto v = static_cast<VertexId>(rng.below(span));
        const auto w = static_cast<std::uint32_t>(rng.below(5));
        out.push_back(Edge{v, w});
        edges.emplace_back(u, v, w);
      }
      off.push_back(static_cast<std::uint32_t>(out.size()));
    }

    std::vector<EdgeTuple> norm;
    for (const auto& [u, v, w] : edges) {
      if (u != v) norm.emplace_back(std::min(u, v), std::max(u, v), w);
    }
    std::sort(norm.begin(), norm.end(), [](const auto& a, const auto& b) {
      return std::tie(std::get<0>(a), std::get<1>(a)) <
             std::tie(std::get<0>(b), std::get<1>(b));
    });
    std::vector<EdgeTuple> merged;
    for (const auto& e : norm) {
      if (!merged.empty() && std::get<0>(merged.back()) == std::get<0>(e) &&
          std::get<1>(merged.back()) == std::get<1>(e)) {
        std::get<2>(merged.back()) += std::get<2>(e);
      } else {
        merged.push_back(e);
      }
    }
    std::vector<std::vector<std::pair<VertexId, std::uint32_t>>> rows(n);
    for (const auto& [a, b, w] : merged) {
      rows[a].emplace_back(b, w);
      rows[b].emplace_back(a, w);
    }

    const WeightedGraph from_list(vweights, edges);
    const WeightedGraph from_rows(vweights, off, out);
    for (const WeightedGraph* g : {&from_list, &from_rows}) {
      ASSERT_EQ(g->num_vertices(), n);
      EXPECT_EQ(g->num_edges(), merged.size()) << "t=" << t;
      for (VertexId v = 0; v < n; ++v) {
        std::sort(rows[v].begin(), rows[v].end());
        std::vector<std::pair<VertexId, std::uint32_t>> got;
        for (const Edge& e : g->neighbors(v)) got.emplace_back(e.to, e.weight);
        EXPECT_EQ(got, rows[v]) << "t=" << t << " v=" << v;
      }
    }
  }
}

TEST(WeightedGraph, RowConstructorValidates) {
  const std::vector<Edge> out{{1, 1}};
  const std::vector<std::uint32_t> good{0, 1, 1};
  EXPECT_EQ(WeightedGraph({1, 1}, good, out).num_edges(), 1u);
  // Misframed offsets, decreasing offsets, an out-of-range neighbour.
  const std::vector<std::uint32_t> short_off{0, 1};
  EXPECT_THROW(WeightedGraph({1, 1}, short_off, out), pls::util::CheckError);
  const std::vector<std::uint32_t> decreasing{0, 2, 1, 2};
  const std::vector<Edge> two{{1, 1}, {0, 1}};
  EXPECT_THROW(WeightedGraph({1, 1, 1}, decreasing, two),
               pls::util::CheckError);
  const std::vector<Edge> far{{9, 1}};
  EXPECT_THROW(WeightedGraph({1, 1}, good, far), pls::util::CheckError);
}

}  // namespace
}  // namespace pls::graph
