// Tests for the runtime registry and the simulation driver.

#include <gtest/gtest.h>

#include "circuit/generator.hpp"
#include "framework/driver.hpp"
#include "framework/registry.hpp"
#include "util/check.hpp"

namespace pls::framework {
namespace {

circuit::Circuit small_circuit() {
  circuit::GeneratorSpec spec;
  spec.num_comb_gates = 200;
  spec.num_inputs = 10;
  spec.num_outputs = 5;
  spec.num_dffs = 12;
  spec.seed = 4;
  return circuit::generate(spec);
}

TEST(Registry, ExposesThePaperSixStrategiesPlusHypergraph) {
  const auto& names = partitioner_names();
  ASSERT_EQ(names.size(), 7u);
  EXPECT_EQ(names[0], "Random");
  EXPECT_EQ(names[4], "Multilevel");
  EXPECT_EQ(names[6], "MultilevelHG");
}

TEST(Registry, NamesStayInSyncWithFactory) {
  // Smoke test guarding the listing/factory pair: every advertised name
  // must instantiate to a partitioner reporting that exact name, and
  // anything else must throw.  Catches a strategy added to one side only.
  for (const auto& name : partitioner_names()) {
    const auto p = make_partitioner(name);
    ASSERT_NE(p, nullptr) << name;
    EXPECT_EQ(p->name(), name);
  }
  EXPECT_THROW(make_partitioner("NoSuchStrategy"), util::CheckError);
  EXPECT_THROW(make_partitioner(""), util::CheckError);
  EXPECT_THROW(make_partitioner("multilevelhg"), util::CheckError);  // exact
}

TEST(Registry, ConeAliasWorks) {
  EXPECT_EQ(make_partitioner("Cone")->name(), "ConePartition");
}

TEST(Registry, UnknownNameThrows) {
  EXPECT_THROW(make_partitioner("Magical"), util::CheckError);
}

TEST(Registry, SelectionWithoutRecompilation) {
  // The paper's point: strategy is a runtime value.  Same circuit, every
  // strategy, one binary.
  const auto c = small_circuit();
  for (const auto& name : partitioner_names()) {
    const auto p = make_partitioner(name)->run(c, 4, 1);
    p.validate(c.size());
  }
}

TEST(Driver, PartitionOnlyFillsMetrics) {
  const auto c = small_circuit();
  DriverConfig cfg;
  cfg.partitioner = "Multilevel";
  cfg.num_nodes = 4;
  const DriverResult res = partition_only(c, cfg);
  res.partition.validate(c.size());
  EXPECT_GT(res.edge_cut, 0u);
  EXPECT_GE(res.comm_volume, 1u);
  EXPECT_GE(res.imbalance, 1.0);
  EXPECT_GT(res.concurrency, 0.0);
  EXPECT_GE(res.partition_seconds, 0.0);
}

TEST(Driver, ParallelRunProducesStats) {
  const auto c = small_circuit();
  DriverConfig cfg;
  cfg.partitioner = "Multilevel";
  cfg.num_nodes = 2;
  cfg.end_time = 300;
  cfg.event_cost_ns = 0;
  cfg.latency_ns = 1000;
  const DriverResult res = run_parallel(c, cfg);
  EXPECT_EQ(res.run.num_nodes, 2u);
  EXPECT_GT(res.run.totals.events_committed, 0u);
  EXPECT_GT(res.run.wall_seconds, 0.0);
  EXPECT_EQ(res.run.final_states.size(), c.size());
}

TEST(Driver, SequentialRunMatchesModel) {
  const auto c = small_circuit();
  DriverConfig cfg;
  cfg.end_time = 300;
  cfg.event_cost_ns = 0;
  const auto seq = run_sequential(c, cfg);
  EXPECT_GT(seq.events_processed, 0u);
  EXPECT_EQ(seq.final_states.size(), c.size());
  EXPECT_EQ(seq.per_lp_events.size(), c.size());
}

TEST(Driver, SeedControlsStimulus) {
  const auto c = small_circuit();
  DriverConfig cfg;
  cfg.end_time = 300;
  cfg.event_cost_ns = 0;
  cfg.seed = 10;
  const auto a = run_sequential(c, cfg);
  const auto b = run_sequential(c, cfg);
  EXPECT_EQ(a.events_processed, b.events_processed);
  cfg.seed = 11;
  const auto d = run_sequential(c, cfg);
  EXPECT_NE(a.events_processed, d.events_processed);
}

TEST(Driver, OomLimitPropagates) {
  const auto c = small_circuit();
  DriverConfig cfg;
  cfg.partitioner = "Random";
  cfg.num_nodes = 2;
  cfg.end_time = 100000;
  cfg.event_cost_ns = 0;
  cfg.latency_ns = 0;
  cfg.max_live_entries_per_node = 64;  // absurdly small
  cfg.gvt_interval_us = 200;
  const DriverResult res = run_parallel(c, cfg);
  EXPECT_TRUE(res.run.out_of_memory);
}

}  // namespace
}  // namespace pls::framework
