// Tests for the greedy / Kernighan–Lin / Fiduccia–Mattheyses refiners:
// cut never increases, balance limits hold, known-optimal small cases are
// found, and a parameterized sweep over all refiners and graph shapes, with
// unit and with random vertex weights.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <tuple>

#include "circuit/generator.hpp"
#include "graph/weighted_graph.hpp"
#include "multilevel/balance.hpp"
#include "partition/initial.hpp"
#include "partition/metrics.hpp"
#include "partition/refine.hpp"
#include "util/rng.hpp"

namespace pls::partition {
namespace {

using EdgeTuple = std::tuple<graph::VertexId, graph::VertexId, std::uint32_t>;

/// Two 4-cliques joined by a single light edge: optimal bisection cuts
/// exactly that bridge.
graph::WeightedGraph two_cliques() {
  std::vector<EdgeTuple> edges;
  for (int base : {0, 4}) {
    for (int i = 0; i < 4; ++i) {
      for (int j = i + 1; j < 4; ++j) {
        edges.emplace_back(base + i, base + j, 4);
      }
    }
  }
  edges.emplace_back(3, 4, 1);  // bridge
  return graph::WeightedGraph(std::vector<std::uint32_t>(8, 1), edges);
}

/// Worst-case starting partition for two_cliques: stripes across cliques.
Partition striped_partition() {
  Partition p;
  p.k = 2;
  p.assign = {0, 1, 0, 1, 0, 1, 0, 1};
  return p;
}

/// Vertex weights are 1, or drawn from 1..max_vertex_weight like the
/// globule weights of a coarse level.
graph::WeightedGraph random_graph(std::size_t n, std::size_t m,
                                  std::uint64_t seed,
                                  std::uint32_t max_vertex_weight = 1) {
  util::Rng rng(seed);
  std::vector<EdgeTuple> edges;
  edges.reserve(m + n);
  // A ring guarantees connectivity, then random chords.
  for (graph::VertexId v = 0; v < n; ++v) {
    edges.emplace_back(v, (v + 1) % n, 1);
  }
  for (std::size_t i = 0; i < m; ++i) {
    const auto u = static_cast<graph::VertexId>(rng.below(n));
    const auto v = static_cast<graph::VertexId>(rng.below(n));
    edges.emplace_back(u, v, 1 + static_cast<std::uint32_t>(rng.below(4)));
  }
  std::vector<std::uint32_t> vertex_weights(n);
  for (auto& w : vertex_weights) {
    w = 1 + static_cast<std::uint32_t>(rng.below(max_vertex_weight));
  }
  return graph::WeightedGraph(std::move(vertex_weights), edges);
}

Partition random_partition(std::size_t n, std::uint32_t k,
                           std::uint64_t seed) {
  util::Rng rng(seed);
  Partition p;
  p.k = k;
  p.assign.resize(n);
  for (auto& a : p.assign) a = static_cast<PartId>(rng.below(k));
  return p;
}

TEST(GreedyRefiner, FindsOptimalBisectionOfTwoCliques) {
  const auto g = two_cliques();
  Partition p = striped_partition();
  RefineOptions opt;
  opt.balance_tol = 0.01;
  const auto res = GreedyRefiner().refine(g, p, opt);
  EXPECT_EQ(res.cut_after, 1u);  // only the bridge
  EXPECT_LT(res.cut_after, res.cut_before);
  // Cliques whole on each side.
  for (int i = 1; i < 4; ++i) EXPECT_EQ(p.assign[i], p.assign[0]);
  for (int i = 5; i < 8; ++i) EXPECT_EQ(p.assign[i], p.assign[4]);
}

TEST(KLRefiner, FindsOptimalBisectionOfTwoCliques) {
  const auto g = two_cliques();
  Partition p = striped_partition();
  RefineOptions opt;
  opt.balance_tol = 0.01;
  const auto res = KernighanLinRefiner().refine(g, p, opt);
  EXPECT_EQ(res.cut_after, 1u);
}

TEST(FMRefiner, FindsOptimalBisectionOfTwoCliques) {
  const auto g = two_cliques();
  Partition p = striped_partition();
  RefineOptions opt;
  opt.balance_tol = 0.01;
  const auto res = FiducciaMattheysesRefiner().refine(g, p, opt);
  EXPECT_EQ(res.cut_after, 1u);
}

TEST(GreedyRefiner, ConvergesInFewIterations) {
  // The paper: "The greedy algorithm was found to converge in a few
  // iterations."
  const auto g = random_graph(400, 1200, 3);
  Partition p = random_partition(400, 4, 4);
  RefineOptions opt;
  opt.max_iters = 50;
  const auto res = GreedyRefiner().refine(g, p, opt);
  EXPECT_LE(res.iterations, 15u);
}

TEST(GreedyRefiner, LockingBoundsMovesPerIteration) {
  const auto g = random_graph(200, 600, 5);
  Partition p = random_partition(200, 4, 6);
  RefineOptions opt;
  opt.max_iters = 1;
  const auto res = GreedyRefiner().refine(g, p, opt);
  EXPECT_LE(res.moves, 200u);  // each vertex moved at most once
}

TEST(Refiners, NoopOnSinglePartition) {
  const auto g = random_graph(100, 300, 7);
  for (RefinerKind kind : {RefinerKind::kGreedy, RefinerKind::kKernighanLin,
                           RefinerKind::kFiducciaMattheyses}) {
    Partition p;
    p.k = 1;
    p.assign.assign(100, 0);
    const auto res = make_refiner(kind)->refine(g, p, RefineOptions{});
    EXPECT_EQ(res.cut_after, 0u);
    EXPECT_EQ(res.moves, 0u);
  }
}

TEST(Refiners, AlreadyOptimalStaysPut) {
  const auto g = two_cliques();
  Partition p;
  p.k = 2;
  p.assign = {0, 0, 0, 0, 1, 1, 1, 1};
  for (RefinerKind kind : {RefinerKind::kGreedy, RefinerKind::kKernighanLin,
                           RefinerKind::kFiducciaMattheyses}) {
    Partition q = p;
    const auto res = make_refiner(kind)->refine(g, q, RefineOptions{});
    EXPECT_EQ(res.cut_after, 1u);
    EXPECT_EQ(q.assign, p.assign) << make_refiner(kind)->name();
  }
}

// ---- parameterized: all refiners on various graphs preserve contracts ----

struct RefineParam {
  RefinerKind kind;
  std::size_t n;
  std::size_t m;
  std::uint32_t k;
  std::uint64_t seed;
  std::uint32_t max_vertex_weight;  ///< 1: unit weights
};

class RefinerSweep : public ::testing::TestWithParam<RefineParam> {};

TEST_P(RefinerSweep, CutNeverIncreasesAndBalanceHolds) {
  const RefineParam prm = GetParam();
  const auto g = random_graph(prm.n, prm.m, prm.seed, prm.max_vertex_weight);
  Partition p = random_partition(prm.n, prm.k, prm.seed + 1);
  RefineOptions opt;
  opt.balance_tol = 0.25;
  opt.seed = prm.seed + 2;

  std::vector<std::uint32_t> weights(prm.n);
  for (graph::VertexId v = 0; v < prm.n; ++v) weights[v] = g.vertex_weight(v);
  const std::uint64_t before = edge_cut(g, p);
  const auto loads_before = p.loads(weights);
  const auto res = make_refiner(prm.kind)->refine(g, p, opt);

  p.validate(prm.n);
  EXPECT_EQ(res.cut_before, before);
  EXPECT_LE(res.cut_after, before);
  EXPECT_EQ(res.cut_after, edge_cut(g, p));

  // Every committed move keeps its destination's weighted load at or
  // below the limit, so a part ends at or below it unless it started
  // above it, and such a part can only have shed weight.
  const std::uint64_t limit = multilevel::balance_limit(
      g.total_vertex_weight(), prm.k, opt.balance_tol);
  const auto loads = p.loads(weights);
  for (PartId q = 0; q < prm.k; ++q) {
    EXPECT_LE(loads[q], std::max(limit, loads_before[q])) << "part " << q;
  }
}

std::string refiner_name(RefinerKind k) {
  switch (k) {
    case RefinerKind::kGreedy: return "Greedy";
    case RefinerKind::kKernighanLin: return "KL";
    case RefinerKind::kFiducciaMattheyses: return "FM";
  }
  return "?";
}

std::vector<RefineParam> sweep_params() {
  std::vector<RefineParam> params;
  for (RefinerKind kind : {RefinerKind::kGreedy, RefinerKind::kKernighanLin,
                           RefinerKind::kFiducciaMattheyses}) {
    for (std::uint32_t max_w : {1u, 8u}) {
      params.push_back({kind, 60, 150, 2, 1, max_w});
      params.push_back({kind, 300, 900, 4, 2, max_w});
      params.push_back({kind, 800, 2400, 8, 3, max_w});
    }
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(
    Contracts, RefinerSweep, ::testing::ValuesIn(sweep_params()),
    [](const auto& info) {
      const RefineParam& prm = info.param;
      return refiner_name(prm.kind) + "_n" + std::to_string(prm.n) + "_k" +
             std::to_string(prm.k) +
             (prm.max_vertex_weight > 1
                  ? "_w" + std::to_string(prm.max_vertex_weight)
                  : "");
    });

// ---- initial partitioning ------------------------------------------------

TEST(InitialPartition, SpreadsInputGlobules) {
  const auto g = random_graph(64, 100, 9);
  std::vector<std::uint8_t> is_input(64, 0);
  for (int i = 0; i < 16; ++i) is_input[i] = 1;
  InitialOptions opt;
  opt.k = 4;
  const Partition p = initial_partition(g, is_input, opt);
  p.validate(64);
  // Each part gets inputs/k = 4 input globules (equal weights).
  std::vector<int> inputs_per_part(4, 0);
  for (int i = 0; i < 16; ++i) ++inputs_per_part[p.assign[i]];
  for (int n : inputs_per_part) EXPECT_EQ(n, 4);
}

TEST(InitialPartition, RespectsBalanceTolerance) {
  const auto g = random_graph(500, 800, 10);
  std::vector<std::uint8_t> is_input(500, 0);
  InitialOptions opt;
  opt.k = 5;
  opt.balance_tol = 0.10;
  const Partition p = initial_partition(g, is_input, opt);
  EXPECT_LE(imbalance(g, p), 1.11);
}

TEST(InitialPartition, HeavyGlobulesPlacedLeastLoaded) {
  // One giant globule plus dust: the giant sits alone-ish on its part.
  std::vector<std::uint32_t> weights(21, 1);
  weights[0] = 100;
  std::vector<EdgeTuple> no_edges;
  graph::WeightedGraph g(weights, no_edges);
  std::vector<std::uint8_t> is_input(21, 0);
  InitialOptions opt;
  opt.k = 2;
  const Partition p = initial_partition(g, is_input, opt);
  std::uint64_t with_giant = 0;
  for (int i = 1; i <= 20; ++i) {
    with_giant += (p.assign[i] == p.assign[0]);
  }
  EXPECT_LE(with_giant, 3u);  // nearly everything on the other part
}

TEST(InitialPartition, DeterministicBySeed) {
  const auto g = random_graph(100, 200, 11);
  std::vector<std::uint8_t> is_input(100, 0);
  InitialOptions opt;
  opt.k = 3;
  opt.seed = 42;
  EXPECT_EQ(initial_partition(g, is_input, opt).assign,
            initial_partition(g, is_input, opt).assign);
}

}  // namespace
}  // namespace pls::partition
