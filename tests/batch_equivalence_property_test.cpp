// Lane-equivalence property harness for the bit-parallel batched stimulus
// engine — the correctness contract of src/logicsim/lanes.hpp:
//
//   lane j of a batched run with base seed S is bit-identical to an
//   independent scalar (lanes = 1) run with seed lane_seed(S, j).
//
// Swept over random generated circuits × seeds × lane counts, on both
// backends: the batched Time Warp run must commit exactly the batched
// sequential run's results (the classic equivalence check — same model,
// both backends), and every lane of either must project onto the final
// states of its own scalar reference run.  Dedicated cases drive the
// engine through a forced rollback storm (unlimited optimism, high
// latency, maximal cut), because masked events must survive cancellation
// and re-execution per-lane exactly.  Fault simulation (uniform stimulus + stuck-at lanes)
// rides the same contract: lane 0 stays bit-identical to the fault-free
// scalar run.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>

#include "circuit/generator.hpp"
#include "framework/driver.hpp"
#include "logicsim/equivalence.hpp"
#include "logicsim/lanes.hpp"

namespace pls {
namespace {

circuit::Circuit random_circuit(std::uint64_t seed) {
  circuit::GeneratorSpec spec;
  spec.name = "batch_prop_" + std::to_string(seed);
  spec.num_comb_gates = 220;
  spec.num_inputs = 12;
  spec.num_outputs = 6;
  spec.num_dffs = 16;
  spec.seed = seed;
  return circuit::generate(spec);
}

framework::DriverConfig fast_config() {
  framework::DriverConfig cfg;
  cfg.end_time = 400;
  cfg.seed = 77;
  cfg.event_cost_ns = 0;
  cfg.send_overhead_ns = 0;
  cfg.latency_ns = 5000;
  cfg.gvt_interval_us = 500;
  return cfg;
}

/// Scalar sequential reference for one lane of a batched run.
logicsim::SeqStats scalar_reference(const circuit::Circuit& c,
                                    const framework::DriverConfig& batched,
                                    unsigned lane) {
  framework::DriverConfig scalar = batched;
  scalar.model.lanes = 1;
  scalar.model.faults.clear();
  scalar.model.uniform_stimulus = false;
  scalar.seed = logicsim::lane_seed(batched.seed, lane);
  return framework::run_sequential(c, scalar);
}

/// Check the given lanes of batched final states against their scalar
/// references; returns the total scalar transition count of those lanes.
std::uint64_t expect_lanes_equal(
    const circuit::Circuit& c, const framework::DriverConfig& cfg,
    const std::vector<warped::LpState>& batched_finals, const char* what,
    const std::vector<unsigned>& lanes_to_check) {
  std::uint64_t scalar_transitions = 0;
  for (unsigned lane : lanes_to_check) {
    const auto ref = scalar_reference(c, cfg, lane);
    const auto rep = logicsim::check_lane_equivalence(
        c, batched_finals, lane, cfg.model.lanes, ref.final_states);
    EXPECT_TRUE(rep.ok()) << what << ": lane " << lane << " diverged from "
                          << "scalar seed "
                          << logicsim::lane_seed(cfg.seed, lane) << ": "
                          << rep.describe();
    scalar_transitions += std::accumulate(ref.per_lp_sends.begin(),
                                          ref.per_lp_sends.end(),
                                          std::uint64_t{0});
  }
  return scalar_transitions;
}

/// Check every lane of batched final states against its scalar reference.
std::uint64_t expect_all_lanes_equal(
    const circuit::Circuit& c, const framework::DriverConfig& cfg,
    const std::vector<warped::LpState>& batched_finals, const char* what) {
  std::vector<unsigned> all(cfg.model.lanes);
  std::iota(all.begin(), all.end(), 0u);
  return expect_lanes_equal(c, cfg, batched_finals, what, all);
}

/// Word-boundary lane sample for multi-word (lanes > 64) runs: the first
/// and last lane of every value word, plus their neighbours across each
/// boundary.  Full sweeps stay on the <= 64-lane rows where the scalar
/// reference runs are cheap; these lanes are where a word-indexing bug
/// would land (wrong word, off-by-one shift, inactive-lane leakage).
std::vector<unsigned> boundary_lanes(unsigned lanes) {
  std::vector<unsigned> out{0, 1, lanes - 1};
  for (unsigned b = 64; b < lanes; b += 64) {
    out.push_back(b - 1);
    out.push_back(b);
    if (b + 1 < lanes) out.push_back(b + 1);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

struct BatchParam {
  std::uint64_t circuit_seed;
  std::uint32_t lanes;
  const char* partitioner;
  std::uint32_t nodes;
  std::uint32_t state_period;
};

class BatchEquivalenceSweep : public ::testing::TestWithParam<BatchParam> {};

TEST_P(BatchEquivalenceSweep, EveryLaneMatchesItsScalarRun) {
  const auto [cseed, lanes, partitioner, nodes, period] = GetParam();
  const circuit::Circuit c = random_circuit(cseed);

  framework::DriverConfig cfg = fast_config();
  cfg.model.lanes = lanes;
  cfg.partitioner = partitioner;
  cfg.num_nodes = nodes;
  cfg.state_period = period;

  // Backend equivalence of the batched model itself: the optimistic run
  // commits exactly the batched sequential results (full-word states).
  const auto par = framework::run_parallel(c, cfg);
  const auto seq = framework::run_sequential(c, cfg);
  const auto rep = logicsim::check_equivalence(par.run, seq);
  ASSERT_TRUE(rep.ok()) << rep.describe();

  // Per-lane contract on both backends.  The sequential sweep covers
  // every lane (its per-lane totals also feed the accounting check); the
  // Time Warp side spot-checks word-boundary lanes on multi-word runs —
  // check_equivalence above already proved its full-word states equal the
  // sequential ones bit for bit.
  const std::uint64_t scalar_transitions =
      expect_all_lanes_equal(c, cfg, seq.final_states, "sequential");
  if (lanes > 64) {
    expect_lanes_equal(c, cfg, par.run.final_states, "time-warp",
                       boundary_lanes(lanes));
  } else {
    expect_all_lanes_equal(c, cfg, par.run.final_states, "time-warp");
  }

  // Transition accounting: a batched event carries popcount(mask) lane
  // transitions, so the batched run's committed transition total equals
  // the sum of its lanes' scalar totals exactly.
  const std::uint64_t batched_transitions = std::accumulate(
      seq.per_lp_sends.begin(), seq.per_lp_sends.end(), std::uint64_t{0});
  EXPECT_EQ(batched_transitions, scalar_transitions);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, BatchEquivalenceSweep,
    ::testing::Values(BatchParam{101, 64, "Multilevel", 4, 1},
                      BatchParam{202, 7, "Random", 3, 1},
                      BatchParam{202, 7, "Random", 3, 4},
                      BatchParam{303, 2, "DFS", 2, 1},
                      BatchParam{303, 33, "MultilevelHG", 2, 1},
                      BatchParam{404, 128, "Multilevel", 4, 1},
                      BatchParam{505, 192, "Random", 3, 2}),
    [](const auto& info) {
      return "c" + std::to_string(info.param.circuit_seed) + "_l" +
             std::to_string(info.param.lanes) + "_" +
             info.param.partitioner + "_n" +
             std::to_string(info.param.nodes) + "_sp" +
             std::to_string(info.param.state_period);
    });

TEST(BatchEquivalenceExtras, RollbackStormPreservesEveryLane) {
  // Unlimited optimism + high latency + maximal cut: every cross-node
  // signal is a straggler factory, so masked events are cancelled by
  // whole-word anti-messages and re-executed en masse.
  const circuit::Circuit c = random_circuit(404);
  framework::DriverConfig cfg = fast_config();
  cfg.model.lanes = 64;
  cfg.partitioner = "Random";
  cfg.num_nodes = 4;
  cfg.latency_ns = 50000;
  cfg.throttle.mode = warped::ThrottleMode::kUnlimited;
  cfg.end_time = 300;

  const auto par = framework::run_parallel(c, cfg);
  const auto seq = framework::run_sequential(c, cfg);
  ASSERT_TRUE(logicsim::check_equivalence(par.run, seq).ok());
  EXPECT_GT(par.run.totals.total_rollbacks(), 0u);
  EXPECT_GT(par.run.totals.anti_messages_sent, 0u);
  expect_all_lanes_equal(c, cfg, par.run.final_states, "storm");
}

TEST(BatchEquivalenceExtras, RollbackStormPreserves128WideLanes) {
  // The same straggler factory over a two-word payload: cancellations and
  // re-executions must restore pooled event extensions and wide state
  // snapshots exactly, in every word.
  const circuit::Circuit c = random_circuit(404);
  framework::DriverConfig cfg = fast_config();
  cfg.model.lanes = 128;
  cfg.partitioner = "Random";
  cfg.num_nodes = 4;
  cfg.latency_ns = 50000;
  cfg.throttle.mode = warped::ThrottleMode::kUnlimited;
  cfg.end_time = 300;

  const auto par = framework::run_parallel(c, cfg);
  const auto seq = framework::run_sequential(c, cfg);
  ASSERT_TRUE(logicsim::check_equivalence(par.run, seq).ok());
  EXPECT_GT(par.run.totals.total_rollbacks(), 0u);
  expect_lanes_equal(c, cfg, par.run.final_states, "storm128",
                     boundary_lanes(cfg.model.lanes));
}

TEST(BatchEquivalenceExtras, FaultSimulationKeepsLane0FaultFree) {
  const circuit::Circuit c = random_circuit(606);
  framework::DriverConfig cfg = fast_config();
  cfg.model.lanes = 64;
  cfg.partitioner = "Multilevel";
  cfg.num_nodes = 2;
  cfg.model.uniform_stimulus = true;
  cfg.model.faults = logicsim::sample_faults(c, 63, /*seed=*/9);
  ASSERT_EQ(cfg.model.faults.size(), 63u);

  const auto par = framework::run_parallel(c, cfg);
  const auto seq = framework::run_sequential(c, cfg);
  ASSERT_TRUE(logicsim::check_equivalence(par.run, seq).ok());

  // Lane 0 is the fault-free reference: bit-identical to the scalar run
  // with the base seed even with 63 faulty lanes alongside.
  const auto ref = scalar_reference(c, cfg, 0);
  EXPECT_TRUE(logicsim::check_lane_equivalence(c, par.run.final_states, 0,
                                               cfg.model.lanes,
                                               ref.final_states)
                  .ok());

  // Detection readout agrees across backends and finds at least one
  // fault (63 faults over a 250-gate circuit with 400 time units of
  // stimulus; total silence would mean the accumulators are broken).
  const auto det_par = logicsim::detected_faults(c, cfg.model.faults,
                                                 par.run.final_states,
                                                 cfg.model.lanes);
  const auto det_seq = logicsim::detected_faults(c, cfg.model.faults,
                                                 seq.final_states,
                                                 cfg.model.lanes);
  EXPECT_EQ(det_par, det_seq);
  EXPECT_NE(std::count(det_par.begin(), det_par.end(), true), 0);
}

TEST(BatchEquivalenceExtras, WideFaultSimulationDetectsAcrossWords) {
  // 127 faults in one 128-lane pass: fault lanes 65..127 live in value
  // word 1, so detection must read divergence accumulators beyond the
  // legacy single-word slots.
  const circuit::Circuit c = random_circuit(606);
  framework::DriverConfig cfg = fast_config();
  cfg.model.lanes = 128;
  cfg.partitioner = "Multilevel";
  cfg.num_nodes = 2;
  cfg.model.uniform_stimulus = true;
  cfg.model.faults = logicsim::sample_faults(c, 127, /*seed=*/9);
  ASSERT_EQ(cfg.model.faults.size(), 127u);

  const auto par = framework::run_parallel(c, cfg);
  const auto seq = framework::run_sequential(c, cfg);
  ASSERT_TRUE(logicsim::check_equivalence(par.run, seq).ok());

  const auto ref = scalar_reference(c, cfg, 0);
  EXPECT_TRUE(logicsim::check_lane_equivalence(c, par.run.final_states, 0,
                                               cfg.model.lanes,
                                               ref.final_states)
                  .ok());

  const auto det_par = logicsim::detected_faults(c, cfg.model.faults,
                                                 par.run.final_states,
                                                 cfg.model.lanes);
  const auto det_seq = logicsim::detected_faults(c, cfg.model.faults,
                                                 seq.final_states,
                                                 cfg.model.lanes);
  EXPECT_EQ(det_par, det_seq);
  EXPECT_NE(std::count(det_par.begin(), det_par.end(), true), 0);
  // The first 63 faults are the same sites as the 64-lane test; the upper
  // word must contribute detections of its own for word-1 readout to be
  // exercised (faults 64.. live at bits 65..127).
  const auto detected_in_upper_word =
      std::count(det_par.begin() + 64, det_par.end(), true);
  EXPECT_NE(detected_in_upper_word, 0);
}

TEST(BatchEquivalenceExtras, SingleLaneBatchedRunMatchesScalarEngine) {
  // Lane 0 of a two-lane run is the one-lane run, state for state.
  const circuit::Circuit c = random_circuit(707);
  framework::DriverConfig cfg = fast_config();
  cfg.model.lanes = 1;
  const auto seq1 = framework::run_sequential(c, cfg);

  framework::DriverConfig wide = cfg;
  wide.model.lanes = 2;
  const auto seq2 = framework::run_sequential(c, wide);
  const auto rep = logicsim::check_lane_equivalence(
      c, seq2.final_states, 0, wide.model.lanes, seq1.final_states);
  EXPECT_TRUE(rep.ok()) << rep.describe();
}

TEST(BatchEquivalenceExtras, OneLaneProjectionIsTheIdentity) {
  // One-lane states already have the projected layout, so lane_states and
  // check_lane_equivalence serve every lane count.
  const circuit::Circuit c = random_circuit(708);
  framework::DriverConfig cfg = fast_config();
  cfg.model.lanes = 1;
  const auto par = framework::run_parallel(c, cfg);
  const auto seq = framework::run_sequential(c, cfg);
  EXPECT_EQ(par.lane_states(c, 0), par.run.final_states);
  const auto rep = logicsim::check_lane_equivalence(c, par.run.final_states,
                                                    0, 1, seq.final_states);
  EXPECT_TRUE(rep.ok()) << rep.describe();
}

}  // namespace
}  // namespace pls
