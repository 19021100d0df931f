// Tests for the sequential reference simulator on hand-built circuits with
// waveforms that can be predicted by hand.

#include <gtest/gtest.h>

#include "circuit/bench_io.hpp"
#include "circuit/circuit.hpp"
#include "circuit/generator.hpp"
#include "logicsim/netlist_lps.hpp"
#include "logicsim/sequential.hpp"

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

  const bool a_final = InputLp::vector_bit(7, a, 80 / 20);
  EXPECT_EQ(InputLp::output_of(out.final_states[a]), a_final);
  EXPECT_EQ(GateLp::output_of(out.final_states[n0]), !a_final);
  EXPECT_EQ(GateLp::output_of(out.final_states[n1]), a_final);
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

  const bool av = InputLp::output_of(out.final_states[a]);
  const bool bv = InputLp::output_of(out.final_states[b]);
  EXPECT_EQ(GateLp::output_of(out.final_states[g]), !(av && bv));
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
  const bool expected = InputLp::vector_bit(3, a, 4);
  EXPECT_EQ(DffLp::q_of(out.final_states[ff]), expected);
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

// ----- golden hashes ---------------------------------------------------
//
// FNV-1a hashes of every SeqStats field except the wall time, on generated
// circuits across the scalar, single-word and multi-word lane engines.  A
// speed-up of the sequential reference must keep every committed count and
// every final state word, so a changed hash is a behaviour change.

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
  struct Case {
    std::uint32_t lanes;
    std::uint64_t stim_seed;
    warped::SimTime horizon;
    std::uint64_t hash;
  };
  const Case cases[] = {
      {1, 11, 2000, 0xcf5b4870efd53910ULL},
      {1, 29, 2000, 0xc57fef5ea3ad8e29ULL},
      {64, 11, 600, 0xfc07072e002b11bfULL},
      {64, 29, 600, 0x1fc25eb674e7a2f4ULL},
      {130, 11, 400, 0x3df74e2e53980dd6ULL},
      {130, 29, 400, 0x511ed548649b39d6ULL},
      {256, 11, 300, 0x9c685428d3f56b13ULL},
      {256, 29, 300, 0x2fa1a0846b70c39bULL},
  };
  const auto c = circuit::make_iscas_like("s5378", 2000);
  for (const Case& k : cases) {
    ModelOptions opt;
    opt.lanes = k.lanes;
    opt.stim_seed = k.stim_seed;
    SimModel model = build_model(c, opt);
    const SeqStats out = simulate_sequential(model.behaviours(), k.horizon);
    Fnv1a h;
    h.add(out);
    EXPECT_EQ(h.value(), k.hash)
        << std::hex << "hash 0x" << h.value() << std::dec << " for lanes "
        << k.lanes << ", stim_seed " << k.stim_seed;
  }
}

}  // namespace
}  // namespace pls::logicsim
