// The central correctness property of the whole system, swept as a
// parameterized matrix: for every partitioning strategy, node count and
// state-saving policy, the optimistic parallel simulation commits exactly
// the results of the sequential reference run — same final state for every
// LP and the same number of committed events.  This exercises rollback,
// anti-message cancellation, coast-forward replay, GVT and fossil
// collection end to end on a real circuit.  check_equivalence also pins
// every LP's committed events, lane work and sends to the sequential
// profile.

#include <gtest/gtest.h>

#include "circuit/generator.hpp"
#include "framework/driver.hpp"
#include "logicsim/equivalence.hpp"
#include "warped/stats.hpp"

namespace pls {
namespace {

const circuit::Circuit& property_circuit() {
  static const circuit::Circuit c = [] {
    circuit::GeneratorSpec spec;
    spec.name = "prop";
    spec.num_comb_gates = 450;
    spec.num_inputs = 16;
    spec.num_outputs = 8;
    spec.num_dffs = 30;
    spec.seed = 1234;
    return circuit::generate(spec);
  }();
  return c;
}

framework::DriverConfig fast_config() {
  framework::DriverConfig cfg;
  cfg.end_time = 600;
  cfg.seed = 99;
  // Cheap events and a short but nonzero latency: plenty of optimism and
  // rollbacks without slow wall-clock runs.
  cfg.event_cost_ns = 0;
  cfg.send_overhead_ns = 0;
  cfg.latency_ns = 5000;
  cfg.gvt_interval_us = 500;
  return cfg;
}

struct EqParam {
  const char* partitioner;
  std::uint32_t nodes;
  std::uint32_t state_period;
};

class EquivalenceSweep : public ::testing::TestWithParam<EqParam> {};

TEST_P(EquivalenceSweep, ParallelCommitsSequentialResults) {
  const auto [name, nodes, period] = GetParam();
  framework::DriverConfig cfg = fast_config();
  cfg.partitioner = name;
  cfg.num_nodes = nodes;
  cfg.state_period = period;

  const auto& c = property_circuit();
  const auto par = framework::run_parallel(c, cfg);
  const auto seq = framework::run_sequential(c, cfg);
  const auto rep = logicsim::check_equivalence(par.run, seq);
  EXPECT_TRUE(rep.ok()) << rep.describe();

  // Accounting invariant: every processed event was either committed or
  // rolled back.
  EXPECT_EQ(par.run.totals.events_processed,
            par.run.totals.events_committed +
                par.run.totals.events_rolled_back);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, EquivalenceSweep,
    ::testing::Values(
        EqParam{"Random", 2, 1}, EqParam{"Random", 4, 1},
        EqParam{"DFS", 2, 1}, EqParam{"DFS", 4, 1},
        EqParam{"Cluster", 4, 1}, EqParam{"Topological", 4, 1},
        EqParam{"Multilevel", 2, 1}, EqParam{"Multilevel", 4, 1},
        EqParam{"Multilevel", 8, 1}, EqParam{"ConePartition", 4, 1},
        // Periodic state saving with coast-forward replay:
        EqParam{"Multilevel", 4, 4}, EqParam{"Random", 4, 4},
        EqParam{"Topological", 4, 8}, EqParam{"Multilevel", 1, 1}),
    [](const auto& info) {
      return std::string(info.param.partitioner) + "_n" +
             std::to_string(info.param.nodes) + "_sp" +
             std::to_string(info.param.state_period);
    });

TEST(EquivalenceExtras, HighLatencyRollbackStorm) {
  // Large latency makes every cross-node signal a straggler factory.
  framework::DriverConfig cfg = fast_config();
  cfg.partitioner = "Random";  // maximal cross-node traffic
  cfg.num_nodes = 4;
  cfg.latency_ns = 50000;
  cfg.end_time = 400;

  const auto& c = property_circuit();
  const auto par = framework::run_parallel(c, cfg);
  const auto seq = framework::run_sequential(c, cfg);
  EXPECT_TRUE(logicsim::check_equivalence(par.run, seq).ok());
  EXPECT_GT(par.run.totals.total_rollbacks(), 0u);
  EXPECT_GT(par.run.totals.anti_messages_sent, 0u);
}

TEST(EquivalenceExtras, OptimismWindowPreservesResults) {
  framework::DriverConfig cfg = fast_config();
  cfg.partitioner = "Multilevel";
  cfg.num_nodes = 4;
  // Explicitly fixed: under the adaptive default this would only be the
  // initial window, not the hard bound the test name promises.
  cfg.throttle.mode = warped::ThrottleMode::kFixed;
  cfg.optimism_window = 50;

  const auto& c = property_circuit();
  const auto par = framework::run_parallel(c, cfg);
  const auto seq = framework::run_sequential(c, cfg);
  EXPECT_TRUE(logicsim::check_equivalence(par.run, seq).ok());
}

TEST(EquivalenceExtras, DifferentSeedsGiveDifferentButConsistentRuns) {
  const auto& c = property_circuit();
  framework::DriverConfig cfg = fast_config();
  cfg.num_nodes = 3;

  cfg.seed = 1;
  const auto par1 = framework::run_parallel(c, cfg);
  const auto seq1 = framework::run_sequential(c, cfg);
  EXPECT_TRUE(logicsim::check_equivalence(par1.run, seq1).ok());

  cfg.seed = 2;
  const auto seq2 = framework::run_sequential(c, cfg);
  // Different stimulus seed -> different trajectory.
  EXPECT_NE(seq1.events_processed, seq2.events_processed);
}

TEST(EquivalenceExtras, ActivityWeightedMultilevelStaysCorrect) {
  framework::DriverConfig cfg = fast_config();
  cfg.partitioner = "Multilevel";
  cfg.num_nodes = 4;
  cfg.use_activity = true;

  const auto& c = property_circuit();
  const auto par = framework::run_parallel(c, cfg);
  const auto seq = framework::run_sequential(c, cfg);
  EXPECT_TRUE(logicsim::check_equivalence(par.run, seq).ok());
}

/// A three-LP parallel run and the sequential run it must match.
struct TinyRuns {
  warped::RunStats par;
  logicsim::SeqStats seq;
};

TinyRuns tiny_equivalent_runs() {
  TinyRuns r;
  r.seq.final_states.resize(3);
  r.seq.final_states[1].a = 5;
  r.seq.per_lp_events = {4, 7, 1};
  r.seq.per_lp_lane_work = {4, 90, 1};
  r.seq.per_lp_sends = {2, 30, 0};
  r.seq.events_processed = 12;
  r.par.final_states = r.seq.final_states;
  r.par.totals.events_committed = 12;
  r.par.per_lp.resize(3);
  for (std::size_t lp = 0; lp < 3; ++lp) {
    r.par.per_lp[lp].events_committed = r.seq.per_lp_events[lp];
    r.par.per_lp[lp].lane_work_committed = r.seq.per_lp_lane_work[lp];
    r.par.per_lp[lp].sends_committed = r.seq.per_lp_sends[lp];
  }
  return r;
}

TEST(EquivalenceReport, OneLpsSendsMismatchIsNotEquivalent) {
  TinyRuns r = tiny_equivalent_runs();
  ASSERT_TRUE(logicsim::check_equivalence(r.par, r.seq).ok());
  // Same states, same total: only LP 1's committed sends differ.
  r.par.per_lp[1].sends_committed = 29;
  const auto rep = logicsim::check_equivalence(r.par, r.seq);
  EXPECT_FALSE(rep.ok());
  const std::string text = rep.describe();
  EXPECT_NE(text.find("LP 1"), std::string::npos) << text;
  EXPECT_NE(text.find("sends_committed"), std::string::npos) << text;
}

TEST(EquivalenceReport, NamesTheFirstDifferingLpAndCounter) {
  TinyRuns r = tiny_equivalent_runs();
  r.par.per_lp[2].events_committed = 2;
  r.par.per_lp[1].lane_work_committed = 91;
  const auto rep = logicsim::check_equivalence(r.par, r.seq);
  EXPECT_FALSE(rep.ok());
  EXPECT_EQ(rep.describe(), "LP 1: lane_work_committed 91 != sequential 90");
  r.par.per_lp.pop_back();
  EXPECT_EQ(logicsim::check_equivalence(r.par, r.seq).describe(),
            "LP 2: LP count 2 != sequential 3");
}

}  // namespace
}  // namespace pls
