// Tests for the shared multilevel core (src/multilevel/): activity-derived
// weights, the deduplicated balance/imbalance arithmetic, coarse-solution
// projection, the uniform-weight bit-identity safety net behind the
// refactor, and the driver's activity-guided modes.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "circuit/generator.hpp"
#include "framework/driver.hpp"
#include "framework/registry.hpp"
#include "hypergraph/hypergraph.hpp"
#include "hypergraph/metrics.hpp"
#include "logicsim/activity.hpp"
#include "multilevel/balance.hpp"
#include "multilevel/metrics.hpp"
#include "multilevel/vcycle.hpp"
#include "multilevel/weights.hpp"
#include "partition/metrics.hpp"
#include "partition/multilevel_partitioner.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace pls {
namespace {

circuit::Circuit test_circuit(std::size_t gates = 900,
                              std::uint64_t seed = 17) {
  circuit::GeneratorSpec spec;
  spec.num_comb_gates = gates;
  spec.num_inputs = 24;
  spec.num_outputs = 12;
  spec.num_dffs = gates / 16;
  spec.seed = seed;
  return circuit::generate(spec);
}

// ---- weights ------------------------------------------------------------

TEST(Weights, UniformProfileYieldsUniformWeights) {
  const std::vector<double> flat(100, 1.0);
  const auto w = multilevel::weights_from_activity(flat);
  EXPECT_TRUE(w.uniform());
  EXPECT_TRUE(std::all_of(w.vertex.begin(), w.vertex.end(),
                          [](std::uint32_t x) { return x == 1; }));
  // Traffic maps the mean to one constant (the granularity); uniformity is
  // what matters, every traffic consumer is scale-invariant.
  EXPECT_TRUE(std::all_of(w.traffic.begin(), w.traffic.end(),
                          [&](std::uint32_t x) { return x == w.traffic[0]; }));

  EXPECT_TRUE(multilevel::uniform_weights(32).uniform());
  EXPECT_EQ(multilevel::uniform_weights(32).total_vertex_weight(), 32u);
}

TEST(Weights, MappingIsMonotoneAndClamped) {
  // kVertexCap 8, kTrafficGranularity 8, kTrafficCap 256
  const std::vector<double> acts = {0.0, 0.1, 1.0, 2.0, 7.9, 100.0};
  const auto w = multilevel::weights_from_activity(acts);
  for (std::size_t i = 1; i < acts.size(); ++i) {
    EXPECT_GE(w.vertex[i], w.vertex[i - 1]);
    EXPECT_GE(w.traffic[i], w.traffic[i - 1]);
  }
  EXPECT_EQ(w.vertex.front(), 1u);   // zero activity still weighs 1
  EXPECT_EQ(w.traffic.front(), 1u);
  EXPECT_EQ(w.vertex[2], 1u);        // mean activity = unit work weight
  EXPECT_EQ(w.traffic[2], multilevel::kTrafficGranularity);
  EXPECT_EQ(w.vertex.back(), multilevel::kVertexCap);
  EXPECT_EQ(w.traffic.back(), multilevel::kTrafficCap);
  EXPECT_FALSE(w.uniform());
}

TEST(Weights, RejectsInvalidActivity) {
  EXPECT_THROW(multilevel::weights_from_activity({1.0, -0.5}),
               util::CheckError);
  EXPECT_THROW(multilevel::weights_from_activity({std::nan("")}),
               util::CheckError);
  const std::vector<double> two{1.0, 1.0};
  const std::vector<double> one{1.0};
  EXPECT_THROW(multilevel::weights_from_activity(two, one),
               util::CheckError);  // work/traffic must cover the same gates
}

// ---- balance / imbalance dedupe -----------------------------------------

TEST(Balance, LimitMatchesTheHistoricalInlineFormula) {
  util::SplitMix64 rng(7);
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t total = rng.next() % 1000000;
    const auto k = static_cast<std::uint32_t>(1 + rng.next() % 64);
    const double tol = static_cast<double>(rng.next() % 100) / 250.0;
    const auto expect = static_cast<std::uint64_t>(
        std::ceil(static_cast<double>(total) / static_cast<double>(k) *
                  (1.0 + tol)));
    EXPECT_EQ(multilevel::balance_limit(total, k, tol), expect);
  }
}

TEST(Metrics, ImbalanceDefinitionsAgree) {
  // Property (satellite): the circuit-, graph- and hypergraph-side
  // imbalance of the same partition are the same number — one definition,
  // three callers.
  const auto c = test_circuit(500, 3);
  const auto hg = hypergraph::Hypergraph::from_circuit(c);
  util::SplitMix64 rng(11);
  for (std::uint32_t k : {2u, 5u, 8u}) {
    partition::Partition p;
    p.k = k;
    p.assign.resize(c.size());
    for (auto& a : p.assign) {
      a = static_cast<partition::PartId>(rng.next() % k);
    }
    const double ci = partition::imbalance(c, p);
    const double hi = hypergraph::imbalance(hg, p);
    EXPECT_DOUBLE_EQ(ci, hi) << "k=" << k;
    EXPECT_DOUBLE_EQ(ci, multilevel::imbalance_from_loads(
                             p.loads(), c.size(), k))
        << "k=" << k;
  }
}

TEST(Metrics, ImbalanceEdgeCases) {
  const std::vector<std::uint64_t> loads{0, 0};
  EXPECT_DOUBLE_EQ(multilevel::imbalance_from_loads(loads, 0, 2), 1.0);
  const std::vector<std::uint64_t> one{10};
  EXPECT_DOUBLE_EQ(multilevel::imbalance_from_loads(one, 10, 1), 1.0);
}

// ---- projection ---------------------------------------------------------

TEST(Vcycle, ProjectExpandsByParentMap) {
  partition::Partition coarse;
  coarse.k = 3;
  coarse.assign = {2, 0, 1};
  const std::vector<std::uint32_t> parent_map = {0, 1, 1, 2, 0};
  const auto fine = multilevel::project(parent_map, coarse);
  EXPECT_EQ(fine.k, 3u);
  EXPECT_EQ(fine.assign, (std::vector<partition::PartId>{2, 0, 0, 1, 2}));
}

// ---- uniform-weight bit-identity (the refactor safety net) --------------

TEST(UniformWeights, MultilevelBitIdentical) {
  const auto c = test_circuit();
  const auto uni = multilevel::uniform_weights(c.size());
  partition::MultilevelOptions wopt;
  wopt.weights = &uni;
  for (std::uint64_t seed : {1ull, 42ull}) {
    const auto p0 = partition::MultilevelPartitioner().run(c, 8, seed);
    const auto p1 = partition::MultilevelPartitioner(wopt).run(c, 8, seed);
    EXPECT_EQ(p0.assign, p1.assign) << "seed=" << seed;
    EXPECT_EQ(partition::edge_cut(c, p0), partition::edge_cut(c, p1));
    EXPECT_EQ(partition::comm_volume(c, p0), partition::comm_volume(c, p1));
  }
}

TEST(UniformWeights, MultilevelHGBitIdentical) {
  const auto c = test_circuit();
  const auto hg = hypergraph::Hypergraph::from_circuit(c);
  const auto uni = multilevel::uniform_weights(c.size());
  partition::MultilevelOptions wopt;
  wopt.weights = &uni;
  for (std::uint64_t seed : {1ull, 42ull}) {
    const auto p0 =
        framework::make_partitioner("MultilevelHG")->run(c, 8, seed);
    const auto p1 =
        framework::make_partitioner("MultilevelHG", wopt)->run(c, 8, seed);
    EXPECT_EQ(p0.assign, p1.assign) << "seed=" << seed;
    EXPECT_EQ(hypergraph::connectivity_minus_one(hg, p0),
              hypergraph::connectivity_minus_one(hg, p1));
  }
}

TEST(UniformWeights, ScaledUniformTrafficStaysBitIdentical) {
  // weights_from_activity maps a flat profile to traffic weight
  // `granularity`, not 1 — the pipelines must be scale-invariant in
  // traffic, so this too reproduces the unweighted partition exactly.
  const auto c = test_circuit(700, 9);
  const auto w = multilevel::weights_from_activity(
      std::vector<double>(c.size(), 1.0));
  ASSERT_TRUE(w.uniform());
  ASSERT_NE(w.traffic.front(), 1u);
  partition::MultilevelOptions wopt;
  wopt.weights = &w;
  for (const char* strat : {"Multilevel", "MultilevelHG"}) {
    const auto p0 = framework::make_partitioner(strat)->run(c, 4, 5);
    const auto p1 = framework::make_partitioner(strat, wopt)->run(c, 4, 5);
    EXPECT_EQ(p0.assign, p1.assign) << strat;
  }
}

// ---- activity profiling and the guided mode -----------------------------

TEST(Activity, ProfileDeterministicUnderFixedSeed) {
  const auto c = test_circuit(400, 21);
  logicsim::ModelOptions mo;
  mo.stim_seed = 77;
  const auto a = logicsim::profile_activity(c, mo, 300);
  const auto b = logicsim::profile_activity(c, mo, 300);
  EXPECT_EQ(a.work, b.work);
  EXPECT_EQ(a.traffic, b.traffic);
  mo.stim_seed = 78;
  const auto d = logicsim::profile_activity(c, mo, 300);
  EXPECT_NE(a.work, d.work);
}

TEST(Activity, GuidedNeverWorsensTheWeightedObjective) {
  // run_guided_vcycle's contract: candidate B replays the unweighted seed
  // chain, so the weighted λ−1 of the activity-guided partition is never
  // above the unweighted partition's.
  const auto c = test_circuit(1100, 13);
  logicsim::ModelOptions mo;
  mo.stim_seed = 5;
  const auto prof = logicsim::profile_activity(c, mo, 300);
  const auto w = multilevel::weights_from_activity(prof.work, prof.traffic);
  const auto whg = hypergraph::Hypergraph::from_circuit(c, &w);

  partition::MultilevelOptions wopt;
  wopt.weights = &w;
  for (std::uint64_t seed : {1ull, 9ull}) {
    const auto off =
        framework::make_partitioner("MultilevelHG")->run(c, 8, seed);
    const auto act =
        framework::make_partitioner("MultilevelHG", wopt)->run(c, 8, seed);
    EXPECT_LE(hypergraph::connectivity_minus_one(whg, act),
              hypergraph::connectivity_minus_one(whg, off))
        << "seed=" << seed;
  }
}

// ---- driver plumbing ----------------------------------------------------

TEST(Driver, UseActivityFailsFastForNonMultilevelStrategies) {
  const auto c = test_circuit(300, 2);
  for (const char* strategy :
       {"Random", "DFS", "Cluster", "Topological", "ConePartition"}) {
    framework::DriverConfig cfg;
    cfg.partitioner = strategy;
    cfg.use_activity = true;
    cfg.end_time = 200;
    try {
      framework::partition_only(c, cfg);
      FAIL() << strategy << " should have been rejected";
    } catch (const util::CheckError& e) {
      EXPECT_NE(std::strstr(e.what(), strategy), nullptr)
          << "message must name the offending strategy: " << e.what();
    }
  }
}

TEST(Driver, ProfileModeRepartitionsBothPipelines) {
  const auto c = test_circuit(600, 4);
  for (const char* strategy : {"Multilevel", "MultilevelHG"}) {
    framework::DriverConfig cfg;
    cfg.partitioner = strategy;
    cfg.num_nodes = 4;
    cfg.use_activity = true;
    cfg.end_time = 400;
    const auto res = framework::partition_only(c, cfg);
    res.partition.validate(c.size());
    EXPECT_GE(res.activity_seconds, 0.0);
  }
}

}  // namespace
}  // namespace pls
