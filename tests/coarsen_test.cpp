// Tests for the coarsening phase: the paper's structural invariants
// (disjoint cover, weight conservation, primary-input rule), stopping
// conditions, weight caps, both schemes, and activity weighting.

#include <gtest/gtest.h>

#include <sstream>

#include "circuit/generator.hpp"
#include "multilevel/vcycle.hpp"
#include "partition/coarsen.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace pls::partition {
namespace {

circuit::Circuit test_circuit(std::uint64_t seed = 21) {
  circuit::GeneratorSpec spec;
  spec.num_comb_gates = 800;
  spec.num_inputs = 24;
  spec.num_outputs = 8;
  spec.num_dffs = 50;
  spec.seed = seed;
  return circuit::generate(spec);
}

TEST(Coarsen, ProducesShrinkingHierarchy) {
  const auto c = test_circuit();
  CoarsenOptions opt;
  opt.threshold = 64;
  const Hierarchy h = coarsen(c, opt);
  ASSERT_GE(h.num_levels(), 2u);
  std::size_t prev = h.base.num_vertices();
  for (const auto& lvl : h.levels) {
    EXPECT_LT(lvl.graph.num_vertices(), prev);
    prev = lvl.graph.num_vertices();
  }
  EXPECT_LE(h.coarsest().num_vertices(), 200u);  // well below the base
}

TEST(Coarsen, InvariantsHold) {
  const auto c = test_circuit();
  CoarsenOptions opt;
  opt.threshold = 64;
  EXPECT_NO_THROW(multilevel::check_hierarchy_invariants(coarsen(c, opt)));
}

TEST(Coarsen, InvariantsHoldWithWeightCap) {
  const auto c = test_circuit();
  CoarsenOptions opt;
  opt.threshold = 32;
  opt.max_globule_weight = 40;
  const Hierarchy h = coarsen(c, opt);
  EXPECT_NO_THROW(multilevel::check_hierarchy_invariants(h));
  for (graph::VertexId v = 0; v < h.coarsest().num_vertices(); ++v) {
    EXPECT_LE(h.coarsest().vertex_weight(v), 40u);
  }
}

TEST(Coarsen, TotalWeightConservedToCoarsest) {
  const auto c = test_circuit();
  const Hierarchy h = coarsen(c, CoarsenOptions{});
  EXPECT_EQ(h.coarsest().total_vertex_weight(), c.size());
}

TEST(Coarsen, NeverMergesTwoPrimaryInputs) {
  // check_hierarchy_invariants already asserts this; run it across seeds.
  for (std::uint64_t seed : {1ull, 2ull, 3ull, 4ull}) {
    const auto c = test_circuit(seed);
    CoarsenOptions opt;
    opt.seed = seed;
    EXPECT_NO_THROW(multilevel::check_hierarchy_invariants(coarsen(c, opt)));
  }
}

TEST(Coarsen, ThresholdStopsCoarsening) {
  const auto c = test_circuit();
  CoarsenOptions opt;
  opt.threshold = 300;
  const Hierarchy h = coarsen(c, opt);
  // Coarsening stops at the first level at or below the threshold; with
  // halving-ish rounds the coarsest level is within a factor of the
  // threshold, never (say) 10x smaller.
  EXPECT_LE(h.coarsest().num_vertices(), 300u);
  EXPECT_GE(h.coarsest().num_vertices(), 30u);
}

TEST(Coarsen, MaxLevelsRespected) {
  // One gate driving 100 leaves: heavy-edge matching pairs only one leaf
  // with the hub's globule per level, so reaching the threshold would take
  // over 100 levels and the depth cap has to stop it.
  circuit::Circuit c;
  const circuit::GateId hub =
      c.add_gate("hub", circuit::GateType::kNot, {c.add_input("a")});
  for (int i = 0; i < 100; ++i) {
    c.mark_output(c.add_gate("leaf" + std::to_string(i),
                             circuit::GateType::kNot, {hub}));
  }
  c.freeze();
  CoarsenOptions opt;
  opt.threshold = 1;  // would coarsen forever
  opt.scheme = CoarsenScheme::kHeavyEdge;
  EXPECT_EQ(coarsen(c, opt).num_levels(), CoarsenOptions::max_levels);
}

TEST(Coarsen, AllInputsCircuitCannotCoarsen) {
  // A circuit of only primary inputs (plus one gate to satisfy freeze):
  // after the gate is absorbed nothing further can combine.
  circuit::Circuit c;
  std::vector<circuit::GateId> pis;
  for (int i = 0; i < 8; ++i) {
    pis.push_back(c.add_input("pi" + std::to_string(i)));
  }
  c.add_gate("g", circuit::GateType::kAnd,
             {pis[0], pis[1], pis[2], pis[3]});
  c.freeze();
  CoarsenOptions opt;
  opt.threshold = 2;
  const Hierarchy h = coarsen(c, opt);
  // One level may absorb the gate into an input globule, after which all
  // globules are input globules and coarsening halts above the threshold.
  EXPECT_GE(h.coarsest().num_vertices(), 8u);
  multilevel::check_hierarchy_invariants(h);
}

TEST(Coarsen, HeavyEdgeSchemeWorks) {
  const auto c = test_circuit();
  CoarsenOptions opt;
  opt.scheme = CoarsenScheme::kHeavyEdge;
  opt.threshold = 64;
  const Hierarchy h = coarsen(c, opt);
  EXPECT_GE(h.num_levels(), 2u);
  EXPECT_NO_THROW(multilevel::check_hierarchy_invariants(h));
  EXPECT_EQ(h.coarsest().total_vertex_weight(), c.size());
}

TEST(Coarsen, InvariantCheckRejectsCorruptLevels) {
  const auto c = test_circuit();
  CoarsenOptions opt;
  opt.threshold = 64;
  const Hierarchy good = coarsen(c, opt);
  ASSERT_GE(good.num_levels(), 1u);
  Hierarchy bad = good;
  bad.levels[0].parent_map[0] =
      static_cast<std::uint32_t>(bad.levels[0].graph.num_vertices());
  EXPECT_THROW(multilevel::check_hierarchy_invariants(bad), util::CheckError);
  bad = good;
  bad.levels[0].contains_input[0] ^= 1;
  EXPECT_THROW(multilevel::check_hierarchy_invariants(bad), util::CheckError);
}

TEST(Coarsen, DeterministicForEqualSeeds) {
  const auto c = test_circuit();
  CoarsenOptions opt;
  opt.seed = 77;
  const Hierarchy a = coarsen(c, opt);
  const Hierarchy b = coarsen(c, opt);
  ASSERT_EQ(a.num_levels(), b.num_levels());
  for (std::size_t i = 0; i < a.num_levels(); ++i) {
    EXPECT_EQ(a.levels[i].parent_map, b.levels[i].parent_map);
  }
}

TEST(Coarsen, SeedsExploreDifferentCoarsenings) {
  const auto c = test_circuit();
  CoarsenOptions a_opt;
  a_opt.seed = 1;
  CoarsenOptions b_opt;
  b_opt.seed = 2;
  const Hierarchy a = coarsen(c, a_opt);
  const Hierarchy b = coarsen(c, b_opt);
  ASSERT_GE(a.num_levels(), 1u);
  ASSERT_GE(b.num_levels(), 1u);
  EXPECT_NE(a.levels[0].parent_map, b.levels[0].parent_map);
}

TEST(Coarsen, ActivityWeightingChangesEdgeWeights) {
  const auto c = test_circuit();
  std::vector<double> activity(c.size(), 0.0);
  for (std::size_t i = 0; i < activity.size(); ++i) {
    activity[i] = (i % 7 == 0) ? 10.0 : 0.1;
  }
  const auto weights = multilevel::weights_from_activity(activity);
  CoarsenOptions plain;
  CoarsenOptions weighted;
  weighted.weights = &weights;
  const Hierarchy hp = coarsen(c, plain);
  const Hierarchy hw = coarsen(c, weighted);
  // Total symmetrized edge weight of G0 must be strictly larger with
  // traffic scaling (a 10x-mean driver weighs traffic_cap-bounded ~40,
  // far above the unit default).
  std::uint64_t wp = 0, ww = 0;
  for (graph::VertexId v = 0; v < hp.base.num_vertices(); ++v) {
    wp += hp.base.weighted_degree(v);
  }
  for (graph::VertexId v = 0; v < hw.base.num_vertices(); ++v) {
    ww += hw.base.weighted_degree(v);
  }
  EXPECT_GT(ww, wp);
}

TEST(Coarsen, CoarseEdgesAreUnionsOfMemberEdges) {
  // If two globules are adjacent at level i+1, some pair of their members
  // must be adjacent at level i.
  const auto c = test_circuit();
  const Hierarchy h = coarsen(c, CoarsenOptions{});
  ASSERT_GE(h.num_levels(), 1u);
  const auto& lvl = h.levels[0];
  // Build member lists.
  std::vector<std::vector<graph::VertexId>> members(
      lvl.graph.num_vertices());
  for (graph::VertexId v = 0; v < h.base.num_vertices(); ++v) {
    members[lvl.parent_map[v]].push_back(v);
  }
  for (graph::VertexId g = 0;
       g < std::min<std::size_t>(lvl.graph.num_vertices(), 50); ++g) {
    for (const auto& e : lvl.graph.neighbors(g)) {
      bool witnessed = false;
      for (graph::VertexId m : members[g]) {
        for (const auto& me : h.base.neighbors(m)) {
          witnessed |= (lvl.parent_map[me.to] == e.to);
        }
      }
      EXPECT_TRUE(witnessed)
          << "coarse edge " << g << "-" << e.to << " has no fine witness";
    }
  }
}

TEST(Coarsen, RequiresFrozenCircuit) {
  circuit::Circuit c;
  c.add_input("a");
  EXPECT_THROW(coarsen(c, CoarsenOptions{}), util::CheckError);
}

// ----- golden hashes ---------------------------------------------------
//
// FNV-1a hashes of whole hierarchies.  A speed-up of the coarsener or of
// the graph's CSR builder must keep every level's vertex weights, rows
// (neighbour order and summed weights), parent maps and input flags, so a
// changed hash is a behaviour change, never noise.

class Fnv1a {
 public:
  void add(std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (x >> (8 * i)) & 0xffu;
      h_ *= 1099511628211ULL;
    }
  }
  void add(const graph::WeightedGraph& g) {
    add(g.num_vertices());
    add(g.num_edges());
    for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
      add(g.vertex_weight(v));
      add(g.neighbors(v).size());
      for (const graph::Edge& e : g.neighbors(v)) {
        add(e.to);
        add(e.weight);
      }
    }
  }
  template <class T>
  void add_all(const std::vector<T>& xs) {
    add(xs.size());
    for (const T x : xs) add(x);
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

/// Work weights 1–4 and traffic weights 0–19, so weight-0 edges occur.
multilevel::VertexTrafficWeights random_weights(std::size_t n,
                                                std::uint64_t seed) {
  util::Rng rng(seed);
  multilevel::VertexTrafficWeights w;
  w.vertex.resize(n);
  w.traffic.resize(n);
  for (auto& x : w.vertex) x = static_cast<std::uint32_t>(1 + rng.below(4));
  for (auto& x : w.traffic) x = static_cast<std::uint32_t>(rng.below(20));
  return w;
}

TEST(GraphGolden, CoarseningHierarchies) {
  // Both schemes, unweighted and activity-weighted, on two circuits: G0
  // and every level's graph, parent map and input flags.
  struct Case {
    const char* circuit;
    CoarsenScheme scheme;
    bool weighted;
    std::uint64_t hash;
  };
  const Case cases[] = {
      {"s9234", CoarsenScheme::kFanout, false, 0xa018e9894e2ac5afULL},
      {"s9234", CoarsenScheme::kFanout, true, 0x2e1b974dd798185dULL},
      {"s9234", CoarsenScheme::kHeavyEdge, false, 0xa2dc93a379e40494ULL},
      {"s9234", CoarsenScheme::kHeavyEdge, true, 0x59e149a1bf4639e2ULL},
      {"s15850", CoarsenScheme::kFanout, false, 0x8d6c0ab21b6baab1ULL},
      {"s15850", CoarsenScheme::kFanout, true, 0x276303a548e976d0ULL},
      {"s15850", CoarsenScheme::kHeavyEdge, false, 0x7d289c50b741bdc1ULL},
      {"s15850", CoarsenScheme::kHeavyEdge, true, 0x09786334b7e83228ULL},
  };
  for (const Case& gc : cases) {
    const auto c = circuit::make_iscas_like(gc.circuit, 2000);
    const auto w = random_weights(c.size(), 5);
    CoarsenOptions opt;
    opt.threshold = 64;
    opt.scheme = gc.scheme;
    opt.seed = 11;
    opt.max_globule_weight = c.size() / 16;
    if (gc.weighted) opt.weights = &w;
    const Hierarchy h = coarsen(c, opt);
    Fnv1a hash;
    hash.add(h.base);
    hash.add_all(h.base_contains_input);
    for (const CoarseLevel& lvl : h.levels) {
      hash.add(lvl.graph);
      hash.add_all(lvl.parent_map);
      hash.add_all(lvl.contains_input);
      hash.add(lvl.merged_globules);
    }
    EXPECT_TRUE(HashIs(hash, gc.hash))
        << gc.circuit << " scheme " << static_cast<int>(gc.scheme)
        << " weighted " << gc.weighted;
  }
}

}  // namespace
}  // namespace pls::partition
