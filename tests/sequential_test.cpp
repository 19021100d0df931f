// Tests for the sequential reference simulator on hand-built circuits with
// waveforms that can be predicted by hand.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "circuit/bench_io.hpp"
#include "circuit/circuit.hpp"
#include "circuit/generator.hpp"
#include "logicsim/netlist_lps.hpp"
#include "logicsim/sequential.hpp"
#include "util/check.hpp"

namespace pls::logicsim {
namespace {

using circuit::GateType;

TEST(Sequential, InverterChainTracksStimulus) {
  // a -> n0 -> n1 (two inverters): after settling, n1 == a, n0 == !a.
  circuit::Circuit c;
  const auto a = c.add_input("a");
  const auto n0 = c.add_gate("n0", GateType::kNot, {a});
  const auto n1 = c.add_gate("n1", GateType::kNot, {n0});
  c.mark_output(n1);
  c.freeze();

  ModelOptions opt;
  opt.stim_period = 20;
  opt.stim_seed = 7;
  SimModel model = build_model(c, opt);
  // End at 90: the last vector the chain can fully absorb is at t=80
  // (a's transition reaches n1 by t=83).
  const SeqStats out = simulate_sequential(model.behaviours(), 90);

  const bool a_final = vector_bit(7, a, 80 / 20);
  EXPECT_EQ(output_bit(out.final_states[a]), a_final);
  EXPECT_EQ(output_bit(out.final_states[n0]), !a_final);
  EXPECT_EQ(output_bit(out.final_states[n1]), a_final);
}

TEST(Sequential, PowerOnSettlesInvertedGates) {
  // NAND(a,b) with a=b=0 must settle to 1 even with no stimulus change.
  circuit::Circuit c;
  const auto a = c.add_input("a");
  const auto b = c.add_input("b");
  const auto g = c.add_gate("g", GateType::kNand, {a, b});
  c.freeze();

  ModelOptions opt;
  opt.stim_period = 1000000;  // effectively static inputs (vector 0 only)
  opt.stim_seed = 1;          // chosen so that not both inputs are 1
  SimModel model = build_model(c, opt);
  const SeqStats out = simulate_sequential(model.behaviours(), 50);

  const bool av = output_bit(out.final_states[a]);
  const bool bv = output_bit(out.final_states[b]);
  EXPECT_EQ(output_bit(out.final_states[g]), !(av && bv));
}

TEST(Sequential, DffDelaysDataByOneClock) {
  // in -> ff; ff samples every 10 starting at phase 5.
  circuit::Circuit c;
  const auto a = c.add_input("a");
  const auto ff = c.add_gate("ff", GateType::kDff, {a});
  c.mark_output(ff);
  c.freeze();

  ModelOptions opt;
  opt.clock_period = 10;
  opt.clock_phase = 5;
  opt.stim_period = 40;
  opt.stim_seed = 3;
  SimModel model = build_model(c, opt);
  const SeqStats out = simulate_sequential(model.behaviours(), 200);

  // Q must equal the input value at the last clock edge (t=195), which is
  // the vector applied at t=160 (index 4).
  const bool expected = vector_bit(3, a, 4);
  EXPECT_EQ(output_bit(out.final_states[ff]), expected);
}

TEST(Sequential, EventCountScalesWithHorizon) {
  circuit::Circuit c;
  const auto a = c.add_input("a");
  c.add_gate("n0", GateType::kNot, {a});
  c.freeze();
  SimModel m1 = build_model(c);
  SimModel m2 = build_model(c);
  const auto short_run = simulate_sequential(m1.behaviours(), 100);
  const auto long_run = simulate_sequential(m2.behaviours(), 1000);
  EXPECT_GT(long_run.events_processed, short_run.events_processed);
}

TEST(Sequential, PerLpEventCountsSumToTotal) {
  const auto c = circuit::parse_bench_string(R"(
INPUT(a)
INPUT(b)
OUTPUT(y)
x = NAND(a, b)
f = DFF(x)
y = XOR(x, f)
)");
  SimModel model = build_model(c);
  const SeqStats out = simulate_sequential(model.behaviours(), 500);
  std::uint64_t sum = 0;
  for (auto n : out.per_lp_events) sum += n;
  EXPECT_EQ(sum, out.events_processed);
  EXPECT_GT(out.events_processed, 0u);
}

TEST(Sequential, DeterministicAcrossRuns) {
  const auto c = circuit::parse_bench_string(R"(
INPUT(a)
INPUT(b)
g1 = OR(a, b)
g2 = NOT(g1)
f = DFF(g2)
g3 = AND(g1, f)
OUTPUT(g3)
)");
  SimModel m1 = build_model(c);
  SimModel m2 = build_model(c);
  const auto r1 = simulate_sequential(m1.behaviours(), 400);
  const auto r2 = simulate_sequential(m2.behaviours(), 400);
  EXPECT_EQ(r1.events_processed, r2.events_processed);
  ASSERT_EQ(r1.final_states.size(), r2.final_states.size());
  for (std::size_t i = 0; i < r1.final_states.size(); ++i) {
    EXPECT_EQ(r1.final_states[i], r2.final_states[i]);
  }
}

// The reference compiles the netlist behaviours into flat arrays, so any
// other LogicalProcess is a check failure that names the LP.
class TickLp final : public warped::LogicalProcess {
 public:
  void init(warped::Context& ctx) override { ctx.schedule_self(1); }
  void execute(warped::Context&, warped::EventBatch) override {}
};

TEST(Sequential, RejectsNonNetlistLps) {
  circuit::Circuit c;
  const auto a = c.add_input("a");
  c.add_gate("n0", GateType::kNot, {a});
  c.freeze();
  SimModel model = build_model(c);
  TickLp other;
  std::vector<warped::LogicalProcess*> lps = model.behaviours();
  lps.push_back(&other);
  try {
    simulate_sequential(lps, 100);
    ADD_FAILURE() << "a generic LP was accepted";
  } catch (const util::CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("LP 2 is not a netlist behaviour"),
              std::string::npos)
        << e.what();
  }
}

// The reference steps the one model its LPs elaborate, so an LP vector
// that mixes two models, reorders one or leaves part of it out fails a
// check that names the first LP at fault.
std::string rejection(const std::vector<warped::LogicalProcess*>& lps) {
  try {
    simulate_sequential(lps, 100);
  } catch (const util::CheckError& e) {
    return e.what();
  }
  return "accepted";
}

circuit::Circuit inverter_chain() {
  circuit::Circuit c;
  const auto a = c.add_input("a");
  const auto n0 = c.add_gate("n0", GateType::kNot, {a});
  c.add_gate("n1", GateType::kNot, {n0});
  c.freeze();
  return c;
}

TEST(Sequential, RejectsBehavioursOfAnotherModel) {
  const circuit::Circuit c = inverter_chain();
  const SimModel m1 = build_model(c);
  const SimModel m2 = build_model(c);
  std::vector<warped::LogicalProcess*> lps = m1.behaviours();
  lps[1] = m2.lps[1].get();
  lps[2] = m2.lps[2].get();
  const std::string why = rejection(lps);
  EXPECT_NE(why.find("LP 1 belongs to another model than LP 0"),
            std::string::npos)
      << why;
}

TEST(Sequential, RejectsMisplacedOrMissingLps) {
  const circuit::Circuit c = inverter_chain();
  const SimModel model = build_model(c);
  std::vector<warped::LogicalProcess*> lps = model.behaviours();
  std::swap(lps[1], lps[2]);
  std::string why = rejection(lps);
  EXPECT_NE(why.find("LP 1 is LP 2 of its model"), std::string::npos) << why;
  lps = model.behaviours();
  lps.pop_back();
  why = rejection(lps);
  EXPECT_NE(why.find("the run holds 2 of the model's 3 LPs"),
            std::string::npos)
      << why;
}

// ----- golden hashes ---------------------------------------------------
//
// FNV-1a hashes of every SeqStats field except the wall time, on generated
// circuits at one lane and at single- and multi-word lane counts.  The
// one-lane rows were recorded on a separate scalar engine that the
// word-wise LPs replaced, and every row on an engine that ran the LP
// behaviours themselves.  A speed-up of the sequential reference must keep
// every committed count and every final state word, so a changed hash is a
// behaviour change.

class Fnv1a {
 public:
  void add(std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (x >> (8 * i)) & 0xffu;
      h_ *= 1099511628211ULL;
    }
  }
  void add(const std::vector<std::uint64_t>& v) {
    add(v.size());
    for (const std::uint64_t x : v) add(x);
  }
  void add(const SeqStats& s) {
    add(s.events_processed);
    add(s.final_states.size());
    for (const warped::LpState& st : s.final_states) {
      add(st.a);
      add(st.b);
      add(st.w.size());
      for (const std::uint64_t x : st.w) add(x);
    }
    add(s.per_lp_events);
    add(s.per_lp_lane_work);
    add(s.per_lp_sends);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ULL;
};

TEST(SeqGolden, GeneratedCircuitsAcrossLaneCounts) {
  // Odd clock edges plus a stimulus drift that freezes half the inputs
  // at t=1000 and thaws the other half.
  ModelOptions odd_clock_drift;
  odd_clock_drift.clock_period = 7;
  odd_clock_drift.clock_phase = 3;
  odd_clock_drift.stim_period = 50;
  odd_clock_drift.stim_drift_at = 1000;
  struct Case {
    const char* circuit;
    std::uint32_t lanes;
    std::uint64_t stim_seed;
    warped::SimTime horizon;
    std::uint64_t hash;
    ModelOptions timing = {};  ///< clock and stimulus timing
  };
  // The s15850 rows are the pipeline benchmark's circuit at its scalar and
  // 256-lane horizons.
  const Case cases[] = {
      {"s5378", 1, 11, 2000, 0xcf5b4870efd53910ULL},
      {"s5378", 1, 29, 2000, 0xc57fef5ea3ad8e29ULL},
      {"s5378", 64, 11, 600, 0xfc07072e002b11bfULL},
      {"s5378", 64, 29, 600, 0x1fc25eb674e7a2f4ULL},
      {"s5378", 130, 11, 400, 0x3df74e2e53980dd6ULL},
      {"s5378", 130, 29, 400, 0x511ed548649b39d6ULL},
      {"s5378", 256, 11, 300, 0x9c685428d3f56b13ULL},
      {"s5378", 256, 29, 300, 0x2fa1a0846b70c39bULL},
      {"s15850", 1, 4242, 6000, 0x262d9fc321f6d8f4ULL},
      {"s15850", 256, 4242, 1200, 0x991282cb5f4d2d9eULL},
      {"s9234", 1, 11, 2000, 0x6175480bd08481acULL},
      {"s5378", 1, 11, 2000, 0x86074dbca6d8c06fULL, odd_clock_drift},
  };
  const circuit::Circuit s5378 = circuit::make_iscas_like("s5378", 2000);
  const circuit::Circuit s9234 = circuit::make_iscas_like("s9234", 2000);
  const circuit::Circuit s15850 = circuit::make_iscas_like("s15850", 2000);
  for (const Case& k : cases) {
    const std::string name = k.circuit;
    const circuit::Circuit& c =
        name == "s5378" ? s5378 : name == "s9234" ? s9234 : s15850;
    ModelOptions opt = k.timing;
    opt.lanes = k.lanes;
    opt.stim_seed = k.stim_seed;
    SimModel model = build_model(c, opt);
    const SeqStats out = simulate_sequential(model.behaviours(), k.horizon);
    Fnv1a h;
    h.add(out);
    EXPECT_EQ(h.value(), k.hash)
        << std::hex << "hash 0x" << h.value() << std::dec << " for "
        << k.circuit << ", lanes " << k.lanes << ", stim_seed "
        << k.stim_seed << ", clock_period " << opt.clock_period;
  }
}

// One driver on two pins of a gate (x, n), a flip-flop whose D is its own
// Q (q), and a toggle flip-flop whose D loops back through a gate (t).
constexpr const char* kEdgeBench = R"(
INPUT(a)
INPUT(b)
INPUT(c)
OUTPUT(y)
OUTPUT(q)
OUTPUT(t)
x = AND(a, a)
n = NAND(b, x, b)
q = DFF(q)
t = DFF(u)
u = XOR(t, n)
v = NOR(c, q)
y = OR(x, v, u)
)";

TEST(SeqGolden, FaultSimulationAndEdgeCircuits) {
  struct Case {
    const char* circuit;
    std::uint32_t lanes;
    std::size_t faults;  ///< sample_faults(c, faults, 9), uniform stimulus
    warped::SimTime horizon;
    std::uint64_t hash;
  };
  // The fault rows inject stuck-at words, drive every lane with the base
  // stream and accumulate divergence at the primary outputs: 127 faults
  // fill words 0 and 1, and 129 also reach lanes 128 and 129 in word 2.
  // Two lanes share one word, so the flip-flop keeps its armed word and
  // the gate its word-wise fanins at K = 1.  On the edge circuit, nine
  // faults include a stuck-at-1 on q, whose Q then feeds its own D.
  const Case cases[] = {
      {"s5378", 64, 63, 600, 0x65e7c2c37d5f8053ULL},
      {"s5378", 130, 127, 400, 0x8a1727645e5aed28ULL},
      {"s5378", 130, 129, 400, 0xfb83b6738af32d3ULL},
      {"s5378", 2, 0, 2000, 0x6221d4572d273198ULL},
      {"edge", 1, 0, 3000, 0xae1c5e6e5c05c8acULL},
      {"edge", 2, 0, 3000, 0x4700acfc14451a4bULL},
      {"edge", 130, 0, 3000, 0x4a8840da05d5d21cULL},
      {"edge", 2, 1, 3000, 0x7bcfda945dc74df9ULL},
      {"edge", 130, 9, 3000, 0xf5451d6ad19f2187ULL},
  };
  const circuit::Circuit s5378 = circuit::make_iscas_like("s5378", 2000);
  const circuit::Circuit edge = circuit::parse_bench_string(kEdgeBench);
  for (const Case& k : cases) {
    const circuit::Circuit& c = std::string(k.circuit) == "s5378" ? s5378
                                                                  : edge;
    ModelOptions opt;
    opt.lanes = k.lanes;
    opt.stim_seed = 11;
    if (k.faults > 0) {
      opt.faults = sample_faults(c, k.faults, 9);
      ASSERT_EQ(opt.faults.size(), k.faults);
      opt.uniform_stimulus = true;
    }
    SimModel model = build_model(c, opt);
    const SeqStats out = simulate_sequential(model.behaviours(), k.horizon);
    Fnv1a h;
    h.add(out);
    EXPECT_EQ(h.value(), k.hash)
        << std::hex << "hash 0x" << h.value() << std::dec << " for "
        << k.circuit << ", lanes " << k.lanes << ", faults " << k.faults;
  }
}

TEST(SampleFaults, DistinctSeededSitesOverEveryGate) {
  // Sites are distinct gates, one seed always gives the same list, and
  // primary inputs are sites like any other gate.
  const circuit::Circuit s5378 = circuit::make_iscas_like("s5378", 2000);
  const auto faults = sample_faults(s5378, 200, 3);
  ASSERT_EQ(faults.size(), 200u);
  std::set<circuit::GateId> sites;
  for (const StuckAtFault& f : faults) sites.insert(f.gate);
  EXPECT_EQ(sites.size(), faults.size());
  EXPECT_EQ(sample_faults(s5378, 200, 3), faults);

  const circuit::Circuit edge = circuit::parse_bench_string(kEdgeBench);
  const auto edge_faults = sample_faults(edge, 9, 9);
  ASSERT_EQ(edge_faults.size(), 9u);
  EXPECT_EQ(sample_faults(edge, 9, 9), edge_faults);
  const auto inputs = edge.primary_inputs();
  EXPECT_TRUE(std::any_of(
      edge_faults.begin(), edge_faults.end(), [&](const StuckAtFault& f) {
        return std::find(inputs.begin(), inputs.end(), f.gate) !=
               inputs.end();
      }));
}

}  // namespace
}  // namespace pls::logicsim
