// Tests for the five baseline partitioners: completeness, balance,
// determinism, and each algorithm's defining structural property —
// parameterized across circuits, k and seeds.

#include <gtest/gtest.h>

#include <memory>

#include "circuit/generator.hpp"
#include "circuit/levelize.hpp"
#include "framework/registry.hpp"
#include "hypergraph/multilevel_hg_partitioner.hpp"
#include "partition/baselines.hpp"
#include "partition/metrics.hpp"
#include "partition/multilevel_partitioner.hpp"

namespace pls::partition {
namespace {

circuit::Circuit test_circuit(std::uint64_t seed = 11) {
  circuit::GeneratorSpec spec;
  spec.num_comb_gates = 600;
  spec.num_inputs = 20;
  spec.num_outputs = 10;
  spec.num_dffs = 40;
  spec.seed = seed;
  return circuit::generate(spec);
}

TEST(RandomPartitioner, PerfectBalance) {
  const auto c = test_circuit();
  const Partition p = RandomPartitioner().run(c, 4, 1);
  p.validate(c.size());
  const auto loads = p.loads();
  const auto mx = *std::max_element(loads.begin(), loads.end());
  const auto mn = *std::min_element(loads.begin(), loads.end());
  EXPECT_LE(mx - mn, 1u);
}

TEST(RandomPartitioner, SeedChangesAssignment) {
  const auto c = test_circuit();
  const Partition a = RandomPartitioner().run(c, 4, 1);
  const Partition b = RandomPartitioner().run(c, 4, 2);
  EXPECT_NE(a.assign, b.assign);
}

TEST(RandomPartitioner, HighEdgeCut) {
  // Random scatter cuts roughly (k-1)/k of all edges — its known weakness.
  const auto c = test_circuit();
  const Partition p = RandomPartitioner().run(c, 4, 1);
  const double frac = static_cast<double>(edge_cut(c, p)) /
                      static_cast<double>(c.num_edges());
  EXPECT_GT(frac, 0.6);
}

TEST(DepthFirstPartitioner, ContiguousChunksOfTraversal) {
  const auto c = test_circuit();
  const Partition p = DepthFirstPartitioner().run(c, 5, 0);
  p.validate(c.size());
  const auto loads = p.loads();
  const auto mx = *std::max_element(loads.begin(), loads.end());
  const auto mn = *std::min_element(loads.begin(), loads.end());
  EXPECT_LE(mx - mn, 1u);
}

TEST(DepthFirstPartitioner, DeterministicIgnoringSeed) {
  const auto c = test_circuit();
  EXPECT_EQ(DepthFirstPartitioner().run(c, 4, 1).assign,
            DepthFirstPartitioner().run(c, 4, 999).assign);
}

TEST(DepthFirstPartitioner, LowerCutThanRandom) {
  const auto c = test_circuit();
  EXPECT_LT(edge_cut(c, DepthFirstPartitioner().run(c, 8, 1)),
            edge_cut(c, RandomPartitioner().run(c, 8, 1)));
}

TEST(BfsClusterPartitioner, BalancedAndComplete) {
  const auto c = test_circuit();
  const Partition p = BfsClusterPartitioner().run(c, 3, 0);
  p.validate(c.size());
  EXPECT_LE(imbalance(c, p), 1.01);
}

TEST(BfsClusterPartitioner, LowerCutThanRandom) {
  const auto c = test_circuit();
  EXPECT_LT(edge_cut(c, BfsClusterPartitioner().run(c, 8, 1)),
            edge_cut(c, RandomPartitioner().run(c, 8, 1)));
}

TEST(TopologicalPartitioner, SpreadsEveryLevelAcrossAllParts) {
  const auto c = test_circuit();
  const std::uint32_t k = 4;
  const Partition p = TopologicalPartitioner().run(c, k, 0);
  p.validate(c.size());
  // Gates at the same topological level can fire concurrently; the
  // algorithm scatters each level round-robin, so any level with >= k
  // gates must touch all k parts.
  const auto lv = circuit::levelize(c);
  for (const auto& gates : lv.by_level) {
    if (gates.size() < k) continue;
    std::vector<bool> seen(k, false);
    for (auto g : gates) seen[p.assign[g]] = true;
    for (std::uint32_t part = 0; part < k; ++part) {
      EXPECT_TRUE(seen[part]);
    }
  }
  // That spread is what the concurrency metric rewards.
  EXPECT_GT(concurrency(c, p), 0.9);
}

TEST(TopologicalPartitioner, CutsMostLevelBoundaries) {
  // The paper: "more signals are split across partitions for concurrency"
  // — topological cut should be among the worst of the structured
  // algorithms.
  const auto c = test_circuit();
  EXPECT_GT(edge_cut(c, TopologicalPartitioner().run(c, 8, 0)),
            edge_cut(c, DepthFirstPartitioner().run(c, 8, 0)));
}

TEST(TopologicalPartitioner, NearPerfectBalance) {
  // The rotation continues across levels: loads differ by at most one.
  const auto c = test_circuit();
  const auto loads = TopologicalPartitioner().run(c, 4, 0).loads();
  const auto mx = *std::max_element(loads.begin(), loads.end());
  const auto mn = *std::min_element(loads.begin(), loads.end());
  EXPECT_LE(mx - mn, 1u);
}

TEST(FanoutConePartitioner, CompleteAndDeterministic) {
  const auto c = test_circuit();
  const Partition p = FanoutConePartitioner().run(c, 4, 0);
  p.validate(c.size());
  EXPECT_EQ(p.assign, FanoutConePartitioner().run(c, 4, 5).assign);
}

TEST(FanoutConePartitioner, LowCommunication) {
  // Cone clustering's selling point: keep each input's cone together.
  const auto c = test_circuit();
  EXPECT_LT(edge_cut(c, FanoutConePartitioner().run(c, 4, 0)),
            edge_cut(c, RandomPartitioner().run(c, 4, 0)) / 2);
}

// ---- parameterized sweep: every baseline yields a valid partition --------

struct SweepParam {
  const char* name;
  std::uint32_t k;
  std::uint64_t circuit_seed;
};

class BaselineSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(BaselineSweep, ProducesCompleteValidPartition) {
  const auto [name, k, cseed] = GetParam();
  const auto c = test_circuit(cseed);
  const auto strategy = framework::make_partitioner(name);
  const Partition p = strategy->run(c, k, 42);
  p.validate(c.size());

  // Every part must be non-empty for k <= inputs (all these circuits have
  // 20 inputs) and the load spread bounded.
  const auto loads = p.loads();
  for (std::uint32_t part = 0; part < k; ++part) {
    EXPECT_GT(loads[part], 0u) << name << " left node " << part << " empty";
  }
  // Static sanity on metrics plumbing.
  EXPECT_LE(edge_cut(c, p), c.num_edges());
  EXPECT_GE(concurrency(c, p), 0.0);
  EXPECT_LE(concurrency(c, p), 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllBaselines, BaselineSweep,
    ::testing::Values(
        SweepParam{"Random", 2, 1}, SweepParam{"Random", 8, 2},
        SweepParam{"DFS", 2, 1}, SweepParam{"DFS", 8, 2},
        SweepParam{"Cluster", 2, 1}, SweepParam{"Cluster", 8, 2},
        SweepParam{"Topological", 2, 1}, SweepParam{"Topological", 8, 2},
        SweepParam{"ConePartition", 2, 1}, SweepParam{"ConePartition", 8, 2},
        SweepParam{"Multilevel", 2, 1}, SweepParam{"Multilevel", 8, 2},
        SweepParam{"Random", 3, 3}, SweepParam{"DFS", 5, 3},
        SweepParam{"Cluster", 6, 3}, SweepParam{"Topological", 7, 3},
        SweepParam{"ConePartition", 5, 3}, SweepParam{"Multilevel", 6, 3}),
    [](const auto& info) {
      return std::string(info.param.name) + "_k" +
             std::to_string(info.param.k) + "_c" +
             std::to_string(info.param.circuit_seed);
    });

TEST(AllPartitioners, KEqualsOneIsTrivial) {
  const auto c = test_circuit();
  for (const auto& name : framework::partitioner_names()) {
    const Partition p = framework::make_partitioner(name)->run(c, 1, 7);
    p.validate(c.size());
    for (auto a : p.assign) EXPECT_EQ(a, 0u);
  }
  // Both multilevel pipelines skip coarsening at k = 1: the trace (reset
  // from a stale run) reports no levels and quality 0.
  auto expect_trivial = [&](const multilevel::Trace& trace, const char* who) {
    EXPECT_TRUE(trace.level_sizes.empty()) << who;
    EXPECT_EQ(trace.quality_after_level, std::vector<std::uint64_t>{0}) << who;
    EXPECT_EQ(trace.initial_quality, 0u) << who;
    EXPECT_EQ(trace.final_quality, 0u) << who;
  };
  MultilevelTrace trace;
  MultilevelPartitioner().run_traced(c, 4, 7, &trace);
  ASSERT_FALSE(trace.level_sizes.empty());
  const Partition p = MultilevelPartitioner().run_traced(c, 1, 7, &trace);
  EXPECT_EQ(p.k, 1u);
  EXPECT_EQ(p.assign, std::vector<PartId>(c.size(), 0));
  expect_trivial(trace, "Multilevel");
  hypergraph::MultilevelHGTrace hg_trace;
  hypergraph::MultilevelHGPartitioner().run_traced(c, 4, 7, &hg_trace);
  ASSERT_FALSE(hg_trace.level_sizes.empty());
  const Partition hp =
      hypergraph::MultilevelHGPartitioner().run_traced(c, 1, 7, &hg_trace);
  EXPECT_EQ(hp.k, 1u);
  EXPECT_EQ(hp.assign, std::vector<PartId>(c.size(), 0));
  expect_trivial(hg_trace, "MultilevelHG");
}

TEST(AllPartitioners, KLargerThanUsualStillValid) {
  const auto c = test_circuit();
  for (const auto& name : framework::partitioner_names()) {
    const Partition p = framework::make_partitioner(name)->run(c, 16, 7);
    p.validate(c.size());
  }
}

}  // namespace
}  // namespace pls::partition
