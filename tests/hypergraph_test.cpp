// Tests for the hypergraph subsystem: CSR construction and pin-count
// invariants, a graph's 2-pin view, the λ−1 ≡ comm_volume and
// λ−1 ≡ edge cut (on the 2-pin view) equivalences, metric inequalities, the
// coarsening hierarchy, FM refinement, and the MultilevelHG partitioner.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <tuple>

#include "circuit/generator.hpp"
#include "framework/registry.hpp"
#include "graph/weighted_graph.hpp"
#include "hypergraph/coarsen.hpp"
#include "hypergraph/initial.hpp"
#include "hypergraph/metrics.hpp"
#include "hypergraph/multilevel_hg_partitioner.hpp"
#include "hypergraph/refine.hpp"
#include "multilevel/vcycle.hpp"
#include "partition/metrics.hpp"
#include "partition/multilevel_partitioner.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace pls::hypergraph {
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

partition::Partition random_partition(std::size_t n, std::uint32_t k,
                                      std::uint64_t seed) {
  util::Rng rng(seed);
  partition::Partition p;
  p.k = k;
  p.assign.resize(n);
  for (auto& a : p.assign) {
    a = static_cast<partition::PartId>(rng.below(k));
  }
  return p;
}

/// Work weights 1–4 and traffic weights 0–19, so weight-0 nets occur.
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

// ----- construction ----------------------------------------------------

TEST(Hypergraph, FromCircuitPinCountInvariants) {
  const auto c = test_circuit();
  const Hypergraph hg = Hypergraph::from_circuit(c);

  EXPECT_EQ(hg.num_vertices(), c.size());
  // One net per gate with >=1 distinct non-self fanout; never more nets
  // than gates.
  EXPECT_LE(hg.num_nets(), c.size());
  EXPECT_GT(hg.num_nets(), 0u);

  std::size_t pin_total = 0;
  for (NetId e = 0; e < hg.num_nets(); ++e) {
    const auto pins = hg.pins(e);
    // Every net has >=2 pins (driver + at least one sink), sorted and
    // duplicate-free, all in range.
    EXPECT_GE(pins.size(), 2u);
    EXPECT_TRUE(std::is_sorted(pins.begin(), pins.end()));
    EXPECT_TRUE(std::adjacent_find(pins.begin(), pins.end()) == pins.end());
    for (VertexId v : pins) EXPECT_LT(v, hg.num_vertices());
    pin_total += pins.size();
  }
  EXPECT_EQ(pin_total, hg.num_pins());

  // The vertex→net incidence is the exact transpose of net→pins.
  std::size_t incidence_total = 0;
  for (VertexId v = 0; v < hg.num_vertices(); ++v) {
    for (NetId e : hg.nets(v)) {
      const auto pins = hg.pins(e);
      EXPECT_TRUE(std::binary_search(pins.begin(), pins.end(), v));
    }
    incidence_total += hg.nets(v).size();
  }
  EXPECT_EQ(incidence_total, hg.num_pins());

  // Unit gate weights.
  EXPECT_EQ(hg.total_vertex_weight(), c.size());
}

TEST(Hypergraph, ExplicitConstructorMergesAndDrops) {
  // Net {0,0,1} has a duplicate pin; net {2} is single-pin and dropped.
  const Hypergraph hg({1, 1, 1}, {{0, 0, 1}, {2}, {1, 2}}, {5, 7, 9});
  EXPECT_EQ(hg.num_nets(), 2u);
  EXPECT_EQ(hg.pins(0).size(), 2u);
  EXPECT_EQ(hg.net_weight(0), 5u);
  EXPECT_EQ(hg.net_weight(1), 9u);
  EXPECT_EQ(hg.weighted_degree(1), 14u);  // nets 0 and 1
}

TEST(Hypergraph, FromCsrAdoptsAndValidates) {
  // Nets {0,1} (weight 5) and {1,2,3} (weight 0), as offsets into pins.
  const Hypergraph hg =
      Hypergraph::from_csr({1, 2, 1, 1}, {0, 2, 5}, {0, 1, 1, 2, 3}, {5, 0});
  EXPECT_EQ(hg.num_vertices(), 4u);
  EXPECT_EQ(hg.total_vertex_weight(), 5u);
  ASSERT_EQ(hg.num_nets(), 2u);
  EXPECT_EQ(std::vector<VertexId>(hg.pins(1).begin(), hg.pins(1).end()),
            (std::vector<VertexId>{1, 2, 3}));
  EXPECT_EQ(hg.nets(1).size(), 2u);
  EXPECT_EQ(hg.weighted_degree(1), 5u);
  // Unsorted, duplicate, single-pin, out-of-range and misframed nets.
  EXPECT_THROW(Hypergraph::from_csr({1, 1}, {0, 2}, {1, 0}, {1}),
               util::CheckError);
  EXPECT_THROW(Hypergraph::from_csr({1, 1}, {0, 2}, {1, 1}, {1}),
               util::CheckError);
  EXPECT_THROW(Hypergraph::from_csr({1, 1}, {0, 1}, {1}, {1}),
               util::CheckError);
  EXPECT_THROW(Hypergraph::from_csr({1, 1}, {0, 2}, {0, 2}, {1}),
               util::CheckError);
  EXPECT_THROW(Hypergraph::from_csr({1, 1}, {0, 2}, {0, 1}, {}),
               util::CheckError);
}

/// A random graph with vertex weights 1–8 and edge weights 0–9; the edge
/// list repeats pairs, both directions and self-loops, which the graph
/// merges or drops.
graph::WeightedGraph random_weighted_graph(std::size_t n, std::size_t m,
                                           util::Rng& rng) {
  std::vector<std::uint32_t> vw(n);
  for (auto& w : vw) w = static_cast<std::uint32_t>(1 + rng.below(8));
  std::vector<std::tuple<graph::VertexId, graph::VertexId, std::uint32_t>>
      edges;
  for (std::size_t i = 0; i < m; ++i) {
    edges.emplace_back(static_cast<graph::VertexId>(rng.below(n)),
                       static_cast<graph::VertexId>(rng.below(n)),
                       static_cast<std::uint32_t>(rng.below(10)));
  }
  return graph::WeightedGraph(std::move(vw), edges);
}

TEST(Hypergraph, FromGraphIsTheTwoPinView) {
  util::Rng rng(41);
  for (int t = 0; t < 50; ++t) {
    const std::size_t n = 1 + rng.below(120);
    const auto g = random_weighted_graph(n, rng.below(4 * n), rng);
    const Hypergraph hg = Hypergraph::from_graph(g);

    ASSERT_EQ(hg.num_vertices(), n);
    EXPECT_EQ(hg.total_vertex_weight(), g.total_vertex_weight());
    for (graph::VertexId v = 0; v < n; ++v) {
      EXPECT_EQ(hg.vertex_weight(v), g.vertex_weight(v));
      EXPECT_EQ(hg.weighted_degree(v), g.weighted_degree(v));
    }
    // One net per undirected edge, in row order, weighted like the edge.
    ASSERT_EQ(hg.num_nets(), g.num_edges()) << "t=" << t;
    NetId e = 0;
    for (graph::VertexId u = 0; u < n; ++u) {
      for (const graph::Edge& edge : g.neighbors(u)) {
        if (edge.to < u) continue;
        const auto pins = hg.pins(e);
        EXPECT_EQ(std::vector<VertexId>(pins.begin(), pins.end()),
                  (std::vector<VertexId>{u, edge.to}));
        EXPECT_EQ(hg.net_weight(e), edge.weight);
        ++e;
      }
    }
  }
}

// ----- metrics ---------------------------------------------------------

TEST(HgMetrics, LambdaMinusOneEqualsCommVolume) {
  // The driver gate is a pin of its own fanout net, so λ(e)−1 counts
  // exactly the foreign parts the driver messages: the hypergraph λ−1
  // must equal partition::comm_volume for ANY partition.
  for (std::uint64_t cseed : {31ULL, 77ULL}) {
    const auto c = test_circuit(800, cseed);
    const Hypergraph hg = Hypergraph::from_circuit(c);
    for (std::uint32_t k : {2u, 3u, 8u}) {
      for (std::uint64_t pseed = 0; pseed < 4; ++pseed) {
        const auto p = random_partition(c.size(), k, pseed);
        EXPECT_EQ(connectivity_minus_one(hg, p),
                  partition::comm_volume(c, p))
            << "cseed=" << cseed << " k=" << k << " pseed=" << pseed;
      }
    }
  }
}

TEST(HgMetrics, LambdaMinusOneEqualsCommVolumeForAllStrategies) {
  const auto c = test_circuit(600, 5);
  const Hypergraph hg = Hypergraph::from_circuit(c);
  for (const auto& name : framework::partitioner_names()) {
    const auto p = framework::make_partitioner(name)->run(c, 4, 9);
    EXPECT_EQ(connectivity_minus_one(hg, p), partition::comm_volume(c, p))
        << name;
  }
}

TEST(HgMetrics, CutNetLambdaSandwich) {
  // For every partition: cut_net <= λ−1 <= (k−1)·cut_net.
  const auto c = test_circuit(700, 13);
  const Hypergraph hg = Hypergraph::from_circuit(c);
  for (std::uint32_t k : {2u, 4u, 8u}) {
    for (std::uint64_t pseed = 0; pseed < 4; ++pseed) {
      const auto p = random_partition(c.size(), k, pseed);
      const auto cn = cut_net(hg, p);
      const auto lm = connectivity_minus_one(hg, p);
      EXPECT_LE(cn, lm);
      EXPECT_LE(lm, static_cast<std::uint64_t>(k - 1) * cn);
    }
  }
}

TEST(HgMetrics, SinglePartIsUncut) {
  const auto c = test_circuit(300, 2);
  const Hypergraph hg = Hypergraph::from_circuit(c);
  partition::Partition p;
  p.k = 1;
  p.assign.assign(c.size(), 0);
  EXPECT_EQ(cut_net(hg, p), 0u);
  EXPECT_EQ(connectivity_minus_one(hg, p), 0u);
  EXPECT_DOUBLE_EQ(imbalance(hg, p), 1.0);
}

TEST(HgMetrics, InvalidPartitionRejected) {
  const auto c = test_circuit(300, 2);
  const Hypergraph hg = Hypergraph::from_circuit(c);
  partition::Partition bad;
  bad.k = 2;
  bad.assign.assign(c.size(), 5);  // part out of range
  EXPECT_THROW(cut_net(hg, bad), util::CheckError);
  EXPECT_THROW(connectivity_minus_one(hg, bad), util::CheckError);
}

TEST(HgMetrics, MatchNaiveSetReference) {
  // Random weighted hypergraphs (duplicate pins, nets of up to every
  // vertex) and partitions with k from 2 to 70, so part ids cross 64,
  // against λ(e) counted as the size of a std::set of the pins' parts.
  util::Rng rng(77);
  for (int t = 0; t < 300; ++t) {
    const auto k = static_cast<std::uint32_t>(2 + rng.below(69));
    const std::size_t n = 2 + rng.below(150);
    const std::size_t m = 1 + rng.below(2 * n);
    std::vector<std::vector<VertexId>> nets(m);
    std::vector<std::uint32_t> nweights(m);
    for (std::size_t e = 0; e < m; ++e) {
      const std::size_t size = rng.below(8) == 0 ? 1 + rng.below(n)
                                                 : 1 + rng.below(6);
      for (std::size_t i = 0; i < size; ++i) {
        nets[e].push_back(static_cast<VertexId>(rng.below(n)));
      }
      nweights[e] = static_cast<std::uint32_t>(rng.below(9));
    }
    const Hypergraph hg(std::vector<std::uint32_t>(n, 1), nets, nweights);
    const auto p = random_partition(n, k, rng.next());
    std::uint64_t lambda1 = 0;
    std::uint64_t cut = 0;
    for (NetId e = 0; e < hg.num_nets(); ++e) {
      std::set<partition::PartId> parts;
      for (VertexId v : hg.pins(e)) parts.insert(p.assign[v]);
      lambda1 += std::uint64_t{hg.net_weight(e)} * (parts.size() - 1);
      if (parts.size() > 1) cut += hg.net_weight(e);
    }
    EXPECT_EQ(connectivity_minus_one(hg, p), lambda1) << "t=" << t
                                                      << " k=" << k;
    EXPECT_EQ(cut_net(hg, p), cut) << "t=" << t << " k=" << k;
  }
}

TEST(HgMetrics, TwoPinViewLambdaEqualsEdgeCut) {
  // On a graph's 2-pin view a net spans one or two parts, so its λ−1 is
  // its edge's cut: the graph pipeline's FM refines the edge cut this way.
  util::Rng rng(43);
  for (int t = 0; t < 200; ++t) {
    const auto k = static_cast<std::uint32_t>(2 + t % 7);
    const std::size_t n = 1 + rng.below(150);
    const auto g = random_weighted_graph(n, rng.below(4 * n), rng);
    const auto p = random_partition(n, k, rng.next());
    EXPECT_EQ(connectivity_minus_one(Hypergraph::from_graph(g), p),
              partition::edge_cut(g, p))
        << "t=" << t << " k=" << k;
  }
  // Edgeless: no nets, nothing cut.
  const auto edgeless = random_weighted_graph(5, 0, rng);
  const Hypergraph hg = Hypergraph::from_graph(edgeless);
  EXPECT_EQ(hg.num_nets(), 0u);
  EXPECT_EQ(hg.total_vertex_weight(), edgeless.total_vertex_weight());
  const auto p = random_partition(5, 3, 9);
  EXPECT_EQ(connectivity_minus_one(hg, p), 0u);
  EXPECT_EQ(partition::edge_cut(edgeless, p), 0u);
}

// ----- coarsening ------------------------------------------------------

TEST(HgCoarsen, HierarchyInvariantsHold) {
  const auto c = test_circuit();
  HgCoarsenOptions opt;
  opt.threshold = 64;
  opt.seed = 3;
  opt.max_globule_weight = c.size() / 8;
  const HgHierarchy h = coarsen(c, opt);
  ASSERT_GE(h.levels.size(), 2u);
  multilevel::check_hierarchy_invariants(h);
  // Strictly shrinking levels, down to (or near) the threshold.
  std::size_t prev = h.base.num_vertices();
  for (const auto& lvl : h.levels) {
    EXPECT_LT(lvl.graph.num_vertices(), prev);
    prev = lvl.graph.num_vertices();
  }
}

TEST(HgCoarsen, GlobuleWeightCapRespected) {
  const auto c = test_circuit(2000, 7);
  HgCoarsenOptions opt;
  opt.threshold = 32;
  opt.max_globule_weight = 40;
  const HgHierarchy h = coarsen(c, opt);
  for (const auto& lvl : h.levels) {
    for (VertexId v = 0; v < lvl.graph.num_vertices(); ++v) {
      EXPECT_LE(lvl.graph.vertex_weight(v), 40u);
    }
  }
}

// ----- refinement ------------------------------------------------------

TEST(HgRefine, NeverIncreasesLambdaAndRespectsBalance) {
  const auto c = test_circuit(900, 11);
  const Hypergraph hg = Hypergraph::from_circuit(c);
  for (std::uint32_t k : {2u, 4u, 8u}) {
    auto p = random_partition(c.size(), k, 17);
    const auto before = connectivity_minus_one(hg, p);
    HgRefineOptions opt;
    opt.balance_tol = 0.05;
    const HgRefineResult r = refine_fm(hg, p, opt);
    EXPECT_EQ(r.lambda_before, before);
    EXPECT_EQ(r.lambda_after, connectivity_minus_one(hg, p));
    EXPECT_LE(r.lambda_after, r.lambda_before);
    // Random partitions are far from optimal: FM must find real gains.
    EXPECT_LT(r.lambda_after, before);
    EXPECT_LE(imbalance(hg, p), 1.06);
  }
}

TEST(HgRefine, WeightedWithZeroWeightNets) {
  const auto c = test_circuit(900, 11);
  const auto w = random_weights(c.size(), 3);
  const Hypergraph hg = Hypergraph::from_circuit(c, &w);
  std::size_t weightless = 0;
  for (NetId e = 0; e < hg.num_nets(); ++e) {
    weightless += hg.net_weight(e) == 0 ? 1 : 0;
  }
  ASSERT_GT(weightless, 0u);
  for (std::uint32_t k : {2u, 3u, 8u}) {
    auto p = random_partition(c.size(), k, 23);
    HgRefineOptions opt;
    opt.balance_tol = 0.05;
    const HgRefineResult r = refine_fm(hg, p, opt);
    EXPECT_EQ(r.lambda_after, connectivity_minus_one(hg, p)) << "k=" << k;
    EXPECT_LE(r.lambda_after, r.lambda_before) << "k=" << k;
    EXPECT_LT(r.lambda_after, r.lambda_before) << "k=" << k;
  }
}

TEST(HgRefine, RejectsWeightedDegreeBeyondGainTable) {
  // The gain table stores 32-bit sums of net weights per vertex; vertex 0
  // here has weighted degree 2·(2³²−1).
  const std::uint32_t heavy = ~std::uint32_t{0};
  const Hypergraph hg({1, 1, 1}, {{0, 1}, {0, 2}}, {heavy, heavy});
  partition::Partition p;
  p.k = 2;
  p.assign = {0, 1, 1};
  EXPECT_THROW(refine_fm(hg, p, HgRefineOptions{}), util::CheckError);
}

// ----- the full partitioner --------------------------------------------

TEST(MultilevelHG, ValidBalancedPartition) {
  const auto c = test_circuit();
  const auto p = MultilevelHGPartitioner().run(c, 8, 1);
  p.validate(c.size());
  EXPECT_LE(partition::imbalance(c, p), 1.04);
  for (auto l : p.loads()) EXPECT_GT(l, 0u);
}

TEST(MultilevelHG, DeterministicBySeed) {
  const auto c = test_circuit();
  EXPECT_EQ(MultilevelHGPartitioner().run(c, 4, 9).assign,
            MultilevelHGPartitioner().run(c, 4, 9).assign);
  EXPECT_NE(MultilevelHGPartitioner().run(c, 4, 9).assign,
            MultilevelHGPartitioner().run(c, 4, 10).assign);
}

TEST(MultilevelHG, TraceShowsThreePhases) {
  const auto c = test_circuit();
  MultilevelHGTrace trace;
  const auto p = MultilevelHGPartitioner().run_traced(c, 4, 1, &trace);
  p.validate(c.size());
  ASSERT_GE(trace.level_sizes.size(), 1u);
  for (std::size_t i = 1; i < trace.level_sizes.size(); ++i) {
    EXPECT_LT(trace.level_sizes[i], trace.level_sizes[i - 1]);
  }
  EXPECT_EQ(trace.quality_after_level.size(), trace.level_sizes.size() + 1);
  EXPECT_EQ(trace.final_quality, trace.quality_after_level.back());
  EXPECT_LE(trace.quality_after_level.front(), trace.initial_quality);
}

TEST(MultilevelHG, TinyCircuitBelowThreshold) {
  circuit::GeneratorSpec spec;
  spec.num_comb_gates = 30;
  spec.num_inputs = 4;
  spec.num_outputs = 2;
  spec.num_dffs = 2;
  const auto c = circuit::generate(spec);
  const auto p = MultilevelHGPartitioner().run(c, 2, 1);
  p.validate(c.size());
}

TEST(MultilevelHG, BeatsGraphMultilevelOnLambda) {
  // The PR's acceptance criterion: on a >=10k-gate circuit at k=8 and
  // equal imbalance tolerance, optimizing λ−1 directly must reach a λ−1
  // volume no worse than the graph pipeline's (empirically ~2x better;
  // asserted with headroom so legal seed-to-seed variation can't flake).
  const auto c = circuit::make_iscas_like("s15850", 2000);
  ASSERT_GE(c.size(), 10000u);
  const Hypergraph hg = Hypergraph::from_circuit(c);
  const auto graph_p = partition::MultilevelPartitioner().run(c, 8, 1);
  const auto hg_p = MultilevelHGPartitioner().run(c, 8, 1);
  // Both pipelines run at the same default 3% tolerance.
  EXPECT_LE(partition::imbalance(c, hg_p), 1.04);
  EXPECT_LE(partition::imbalance(c, graph_p), 1.04);
  EXPECT_LE(connectivity_minus_one(hg, hg_p),
            connectivity_minus_one(hg, graph_p));
}

TEST(MultilevelHG, RegisteredInFrameworkRegistry) {
  const auto& names = framework::partitioner_names();
  EXPECT_NE(std::find(names.begin(), names.end(), "MultilevelHG"),
            names.end());
  const auto p = framework::make_partitioner("MultilevelHG");
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->name(), "MultilevelHG");
}

// ----- golden hashes ---------------------------------------------------
//
// FNV-1a hashes of hierarchies, partitions and FM results.  Speed-ups of
// the refiner or the coarsener must keep every decision (move target and
// tie order, bucket push order, net order and folded weights), so a
// changed hash is a behaviour change, never noise.

class Fnv1a {
 public:
  void add(std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (x >> (8 * i)) & 0xffu;
      h_ *= 1099511628211ULL;
    }
  }
  void add(const partition::Partition& p) {
    add(p.k);
    add(p.assign.size());
    for (auto a : p.assign) add(a);
  }
  void add(const Hypergraph& hg) {
    add(hg.num_vertices());
    for (VertexId v = 0; v < hg.num_vertices(); ++v) add(hg.vertex_weight(v));
    add(hg.num_nets());
    for (NetId e = 0; e < hg.num_nets(); ++e) {
      add(hg.net_weight(e));
      add(hg.pins(e).size());
      for (VertexId v : hg.pins(e)) add(v);
    }
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

struct GoldenCase {
  const char* circuit;
  std::uint32_t k;
  std::uint64_t hash;
};

TEST(HgGolden, CoarseningHierarchies) {
  // Plain and activity-weighted hierarchies: every level's vertex
  // weights, net order, pins and folded net weights, plus the parent maps.
  const auto c = circuit::make_iscas_like("s9234", 2000);
  const auto w = random_weights(c.size(), 5);
  const std::uint64_t expected[] = {0xc717a7c702102e9cULL,
                                    0xd4ca9755307b2a64ULL};
  for (int mode = 0; mode < 2; ++mode) {
    HgCoarsenOptions opt;
    opt.threshold = 64;
    opt.seed = 11 + static_cast<std::uint64_t>(mode);
    opt.max_globule_weight = c.size() / 16;
    if (mode == 1) opt.weights = &w;
    const HgHierarchy h = coarsen(c, opt);
    Fnv1a hash;
    hash.add(h.base);
    for (const auto& lvl : h.levels) {
      hash.add(lvl.graph);
      for (auto g : lvl.parent_map) hash.add(g);
    }
    EXPECT_TRUE(HashIs(hash, expected[mode])) << "mode " << mode;
  }
}

TEST(HgGolden, MultilevelHGPartitions) {
  const GoldenCase cases[] = {
      {"s15850", 2, 0x102cdca86f061de2ULL},
      {"s15850", 3, 0x61182c492c35d814ULL},
      {"s15850", 4, 0x6ed950a2d7a3a937ULL},
      {"s15850", 8, 0x665d082807f98a93ULL},
      {"s9234", 2, 0x519394d5d559fce3ULL},
      {"s9234", 3, 0x01313038d01bfdfcULL},
      {"s9234", 4, 0x6cfefc9c59c6bfd2ULL},
      {"s9234", 8, 0x3e2327ad22fb92e7ULL},
  };
  for (const auto& gc : cases) {
    const auto c = circuit::make_iscas_like(gc.circuit, 2000);
    Fnv1a hash;
    for (std::uint64_t seed : {1u, 7u}) {
      hash.add(MultilevelHGPartitioner().run(c, gc.k, seed));
    }
    EXPECT_TRUE(HashIs(hash, gc.hash)) << gc.circuit << " k=" << gc.k;
  }
}

TEST(HgGolden, GuidedPartitions) {
  // The guided best-of-two cycle under random weights.
  const GoldenCase cases[] = {
      {"s15850", 3, 0x70b7f130be816374ULL},
      {"s15850", 8, 0x24d209c70e936528ULL},
      {"s9234", 2, 0xb759a4c3e5f0ab63ULL},
      {"s9234", 4, 0xf5ca471fe1b229e6ULL},
  };
  for (const auto& gc : cases) {
    const auto c = circuit::make_iscas_like(gc.circuit, 2000);
    const auto w = random_weights(c.size(), 100 + gc.k);
    MultilevelHGOptions opt;
    opt.weights = &w;
    Fnv1a hash;
    hash.add(MultilevelHGPartitioner(opt).run(c, gc.k, 3));
    EXPECT_TRUE(HashIs(hash, gc.hash)) << gc.circuit << " k=" << gc.k;
  }
}

TEST(HgGolden, RefineFmOnRandomHypergraphs) {
  // A few hundred small random weighted hypergraphs (duplicate pins,
  // single-pin nets, zero-weight nets, infeasible balance limits) from
  // random starting partitions.
  util::Rng rng(2024);
  Fnv1a hash;
  std::uint64_t moves = 0;
  for (int t = 0; t < 400; ++t) {
    const std::size_t n = 2 + rng.below(199);
    const auto k = static_cast<std::uint32_t>(2 + rng.below(8));
    std::vector<std::uint32_t> vweights(n);
    for (auto& x : vweights) x = static_cast<std::uint32_t>(1 + rng.below(3));
    const std::size_t m = 1 + rng.below(3 * n);
    std::vector<std::vector<VertexId>> nets(m);
    std::vector<std::uint32_t> nweights(m);
    for (std::size_t e = 0; e < m; ++e) {
      const std::size_t size = rng.below(10) == 0
                                   ? 1 + rng.below(n)
                                   : 1 + rng.below(std::min<std::size_t>(n, 6));
      for (std::size_t i = 0; i < size; ++i) {
        nets[e].push_back(static_cast<VertexId>(rng.below(n)));
      }
      nweights[e] = static_cast<std::uint32_t>(rng.below(6));
    }
    const Hypergraph hg(std::move(vweights), nets, nweights);
    auto p = random_partition(n, k, rng.next());
    HgRefineOptions opt;
    const double tols[] = {0.0, 0.03, 0.1, 0.5};
    opt.balance_tol = tols[rng.below(4)];
    opt.max_iters = static_cast<std::uint32_t>(1 + rng.below(8));
    const HgRefineResult r = refine_fm(hg, p, opt);
    hash.add(p);
    hash.add(r.moves);
    hash.add(r.iterations);
    hash.add(r.lambda_before);
    hash.add(r.lambda_after);
    moves += r.moves;
  }
  EXPECT_GT(moves, 0u);
  EXPECT_TRUE(HashIs(hash, 0x7db8475e675d58beULL));
}

}  // namespace
}  // namespace pls::hypergraph
