// End-to-end tests of the multilevel partitioner: the paper's three-phase
// pipeline, projection property, quality vs baselines, options and traces.

#include <gtest/gtest.h>

#include <sstream>

#include "circuit/generator.hpp"
#include "multilevel/metrics.hpp"
#include "multilevel/weights.hpp"
#include "partition/baselines.hpp"
#include "partition/metrics.hpp"
#include "partition/multilevel_partitioner.hpp"

namespace pls::partition {
namespace {

circuit::Circuit test_circuit(std::size_t gates = 1200,
                              std::uint64_t seed = 31) {
  circuit::GeneratorSpec spec;
  spec.num_comb_gates = gates;
  spec.num_inputs = 32;
  spec.num_outputs = 16;
  spec.num_dffs = gates / 16;
  spec.seed = seed;
  return circuit::generate(spec);
}

TEST(Multilevel, ValidBalancedPartition) {
  const auto c = test_circuit();
  const Partition p = MultilevelPartitioner().run(c, 8, 1);
  p.validate(c.size());
  EXPECT_LE(imbalance(c, p), 1.12);  // within the default 10% tolerance
  const auto loads = p.loads();
  for (auto l : loads) EXPECT_GT(l, 0u);
}

TEST(Multilevel, BeatsRandomOnEdgeCut) {
  const auto c = test_circuit();
  for (std::uint32_t k : {2u, 4u, 8u}) {
    const auto ml = edge_cut(c, MultilevelPartitioner().run(c, k, 1));
    const auto rnd = edge_cut(c, RandomPartitioner().run(c, k, 1));
    EXPECT_LT(ml, rnd / 2) << "k=" << k;
  }
}

TEST(Multilevel, BeatsTopologicalOnEdgeCut) {
  const auto c = test_circuit();
  EXPECT_LT(edge_cut(c, MultilevelPartitioner().run(c, 8, 1)),
            edge_cut(c, TopologicalPartitioner().run(c, 8, 1)));
}

TEST(Multilevel, DeterministicBySeed) {
  const auto c = test_circuit();
  EXPECT_EQ(MultilevelPartitioner().run(c, 4, 9).assign,
            MultilevelPartitioner().run(c, 4, 9).assign);
  EXPECT_NE(MultilevelPartitioner().run(c, 4, 9).assign,
            MultilevelPartitioner().run(c, 4, 10).assign);
}

TEST(Multilevel, TraceShowsThreePhases) {
  const auto c = test_circuit();
  MultilevelTrace trace;
  const Partition p =
      MultilevelPartitioner().run_traced(c, 4, 1, &trace);
  p.validate(c.size());

  // Coarsening produced a strictly shrinking hierarchy.
  ASSERT_GE(trace.level_sizes.size(), 2u);
  for (std::size_t i = 1; i < trace.level_sizes.size(); ++i) {
    EXPECT_LT(trace.level_sizes[i], trace.level_sizes[i - 1]);
  }
  // Refinement at the finest level produced the final cut, and the trace
  // has one entry per refined level (coarsest + every projection).
  EXPECT_EQ(trace.quality_after_level.size(), trace.level_sizes.size() + 1);
  EXPECT_EQ(trace.final_quality, trace.quality_after_level.back());
  // Refinement improved on (or matched) the raw initial partition.
  EXPECT_LE(trace.quality_after_level.front(), trace.initial_quality);
}

TEST(Multilevel, RefinementReducesCutAcrossLevels) {
  // The multilevel claim: refining at every intermediate level beats only
  // refining the original graph.  At minimum, the final cut must not be
  // worse than the projected initial partition's cut would be — proxied
  // here by the coarsest-level cut bound.
  const auto c = test_circuit(2000, 5);
  MultilevelTrace trace;
  MultilevelPartitioner().run_traced(c, 8, 2, &trace);
  EXPECT_LT(trace.final_quality, trace.initial_quality * 2);
}

TEST(Multilevel, HeavyEdgeSchemeOptionWorks) {
  const auto c = test_circuit();
  MultilevelOptions opt;
  opt.scheme = CoarsenScheme::kHeavyEdge;
  const Partition p = MultilevelPartitioner(opt).run(c, 4, 1);
  p.validate(c.size());
  EXPECT_LT(edge_cut(c, p), edge_cut(c, RandomPartitioner().run(c, 4, 1)));
}

TEST(Multilevel, KlAndFmRefinerOptionsWork) {
  const auto c = test_circuit(600, 8);
  for (RefinerKind kind :
       {RefinerKind::kKernighanLin, RefinerKind::kFiducciaMattheyses}) {
    MultilevelOptions opt;
    opt.refiner = kind;
    const Partition p = MultilevelPartitioner(opt).run(c, 4, 1);
    p.validate(c.size());
    EXPECT_LE(imbalance(c, p), 1.35);
  }
}

TEST(Multilevel, ActivityWeightedCoarseningWorks) {
  const auto c = test_circuit();
  std::vector<double> activity(c.size(), 1.0);
  for (std::size_t i = 0; i < activity.size(); i += 3) activity[i] = 8.0;
  const auto weights = multilevel::weights_from_activity(activity);
  MultilevelOptions opt;
  opt.weights = &weights;
  const Partition p = MultilevelPartitioner(opt).run(c, 4, 1);
  p.validate(c.size());
  // The weighted pipeline balances *work* (activity-weighted load), not
  // gate counts: measure imbalance in the same currency.
  const auto loads = p.loads(weights.vertex);
  EXPECT_LE(multilevel::imbalance_from_loads(
                loads, weights.total_vertex_weight(), p.k),
            1.12);
}

TEST(Multilevel, TinyCircuitBelowThreshold) {
  // Smaller than the coarsening threshold: initial + refine on G0 only.
  circuit::GeneratorSpec spec;
  spec.num_comb_gates = 30;
  spec.num_inputs = 4;
  spec.num_outputs = 2;
  spec.num_dffs = 2;
  const auto c = circuit::generate(spec);
  const Partition p = MultilevelPartitioner().run(c, 2, 1);
  p.validate(c.size());
}

TEST(Multilevel, ConcurrencyAtLeastAsGoodAsTraversals) {
  // Coarsening from inputs + input-globule spreading should preserve more
  // concurrency than contiguity-driven traversal partitioners.
  const auto c = test_circuit(2000, 12);
  const double ml = concurrency(c, MultilevelPartitioner().run(c, 8, 1));
  const double dfs = concurrency(c, DepthFirstPartitioner().run(c, 8, 1));
  const double bfs = concurrency(c, BfsClusterPartitioner().run(c, 8, 1));
  EXPECT_GT(ml, std::min(dfs, bfs));
}

TEST(Multilevel, ScalesToIscasSizes) {
  const auto c = circuit::make_iscas_like("s9234", 3);
  const Partition p = MultilevelPartitioner().run(c, 8, 1);
  p.validate(c.size());
  EXPECT_LE(imbalance(c, p), 1.12);
  EXPECT_LT(edge_cut(c, p), c.num_edges() / 3);
}

// ----- golden hashes ---------------------------------------------------
//
// FNV-1a hashes of unweighted Multilevel partitions on the s15850
// stand-in.  A speed-up of the coarsener, the graph's CSR builder or a
// refiner must keep every decision, so a changed hash is a behaviour
// change, never noise.

class Fnv1a {
 public:
  void add(std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (x >> (8 * i)) & 0xffu;
      h_ *= 1099511628211ULL;
    }
  }
  void add(const Partition& p) {
    add(p.k);
    add(p.assign.size());
    for (auto a : p.assign) add(a);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ULL;
};

::testing::AssertionResult HashIs(const Fnv1a& h, std::uint64_t expected) {
  if (h.value() == expected) return ::testing::AssertionSuccess();
  std::ostringstream msg;
  msg << std::hex << "hash 0x" << h.value() << " != recorded 0x" << expected;
  return ::testing::AssertionFailure() << msg.str();
}

TEST(GraphGolden, MultilevelPartitions) {
  // Every refiner at k = 2, 3, 4 and 8; each hash covers seeds 1 and 7.
  struct Case {
    RefinerKind refiner;
    std::uint32_t k;
    std::uint64_t hash;
  };
  const Case cases[] = {
      {RefinerKind::kGreedy, 2, 0x53526b199c424323ULL},
      {RefinerKind::kGreedy, 3, 0x8aabeab128b8c034ULL},
      {RefinerKind::kGreedy, 4, 0xb02cf1a9cd291793ULL},
      {RefinerKind::kGreedy, 8, 0x9b6590c4ea648e33ULL},
      {RefinerKind::kKernighanLin, 2, 0x0f021290a6cc1663ULL},
      {RefinerKind::kKernighanLin, 3, 0xea02d9fe13344956ULL},
      {RefinerKind::kKernighanLin, 4, 0xc747e18063ce7bf3ULL},
      {RefinerKind::kKernighanLin, 8, 0x75ac022ab86550d5ULL},
      // FM runs hypergraph::refine_fm on each level's 2-pin view, so a
      // change there moves these rows and HgGolden together.
      {RefinerKind::kFiducciaMattheyses, 2, 0x552d45ed4f6bec4eULL},
      {RefinerKind::kFiducciaMattheyses, 3, 0x000ef78c102f1bb5ULL},
      {RefinerKind::kFiducciaMattheyses, 4, 0xefb4cdfbb99539d2ULL},
      {RefinerKind::kFiducciaMattheyses, 8, 0xee26e9ae80feaa91ULL},
  };
  const auto c = circuit::make_iscas_like("s15850", 2000);
  for (const Case& gc : cases) {
    MultilevelOptions opt;
    opt.refiner = gc.refiner;
    Fnv1a hash;
    for (std::uint64_t seed : {1u, 7u}) {
      hash.add(MultilevelPartitioner(opt).run(c, gc.k, seed));
    }
    EXPECT_TRUE(HashIs(hash, gc.hash))
        << "refiner " << static_cast<int>(gc.refiner) << " k=" << gc.k;
  }
}

}  // namespace
}  // namespace pls::partition
