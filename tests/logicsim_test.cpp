// Tests for the gate-level LP layer: exhaustive truth tables for
// eval_gate, behaviour of one-lane and wide gates, flip-flops and inputs
// against a mock context, and the elaboration (build_model) port wiring.

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "circuit/generator.hpp"
#include "logicsim/gate_eval.hpp"
#include "logicsim/netlist_lps.hpp"

namespace pls::logicsim {
namespace {

using circuit::GateType;
using warped::Event;
using warped::kTickPort;
using warped::LpId;
using warped::LpState;
using warped::SimTime;

// ---- eval_gate truth tables (parameterized sweep) --------------------------

struct EvalCase {
  GateType type;
  unsigned arity;
  std::uint64_t inputs;
  bool expected;
};

class EvalGateSweep : public ::testing::TestWithParam<EvalCase> {};

TEST_P(EvalGateSweep, MatchesTruthTable) {
  const auto [type, arity, inputs, expected] = GetParam();
  EXPECT_EQ(eval_gate(type, inputs, arity), expected);
}

INSTANTIATE_TEST_SUITE_P(
    TruthTables, EvalGateSweep,
    ::testing::Values(
        // BUF / NOT
        EvalCase{GateType::kBuf, 1, 0b0, false},
        EvalCase{GateType::kBuf, 1, 0b1, true},
        EvalCase{GateType::kNot, 1, 0b0, true},
        EvalCase{GateType::kNot, 1, 0b1, false},
        // AND2: only 11 -> 1
        EvalCase{GateType::kAnd, 2, 0b00, false},
        EvalCase{GateType::kAnd, 2, 0b01, false},
        EvalCase{GateType::kAnd, 2, 0b10, false},
        EvalCase{GateType::kAnd, 2, 0b11, true},
        // NAND2
        EvalCase{GateType::kNand, 2, 0b00, true},
        EvalCase{GateType::kNand, 2, 0b11, false},
        // OR2 / NOR2
        EvalCase{GateType::kOr, 2, 0b00, false},
        EvalCase{GateType::kOr, 2, 0b10, true},
        EvalCase{GateType::kNor, 2, 0b00, true},
        EvalCase{GateType::kNor, 2, 0b01, false},
        // XOR2 / XNOR2 (parity)
        EvalCase{GateType::kXor, 2, 0b00, false},
        EvalCase{GateType::kXor, 2, 0b01, true},
        EvalCase{GateType::kXor, 2, 0b10, true},
        EvalCase{GateType::kXor, 2, 0b11, false},
        EvalCase{GateType::kXnor, 2, 0b01, false},
        EvalCase{GateType::kXnor, 2, 0b11, true},
        // 3- and 4-input variants
        EvalCase{GateType::kAnd, 3, 0b111, true},
        EvalCase{GateType::kAnd, 3, 0b110, false},
        EvalCase{GateType::kNand, 4, 0b1111, false},
        EvalCase{GateType::kNand, 4, 0b0111, true},
        EvalCase{GateType::kOr, 4, 0b0000, false},
        EvalCase{GateType::kOr, 4, 0b0100, true},
        EvalCase{GateType::kNor, 3, 0b000, true},
        EvalCase{GateType::kXor, 3, 0b111, true},
        EvalCase{GateType::kXor, 3, 0b110, false}));

TEST(EvalGate, IgnoresBitsAboveArity) {
  // Garbage above the arity mask must not affect the result.
  EXPECT_TRUE(eval_gate(GateType::kAnd, 0xF3, 2));
  EXPECT_FALSE(eval_gate(GateType::kOr, 0xF0, 2));
}

TEST(EvalGate, ExhaustiveAndNandDuality) {
  for (unsigned arity = 1; arity <= 6; ++arity) {
    for (std::uint64_t in = 0; in < (1ull << arity); ++in) {
      EXPECT_NE(eval_gate(GateType::kAnd, in, arity),
                eval_gate(GateType::kNand, in, arity));
      EXPECT_NE(eval_gate(GateType::kOr, in, arity),
                eval_gate(GateType::kNor, in, arity));
      EXPECT_NE(eval_gate(GateType::kXor, in, arity),
                eval_gate(GateType::kXnor, in, arity));
    }
  }
}

// ---- mock context ----------------------------------------------------------

class MockContext final : public warped::Context {
 public:
  struct Sent {
    LpId target;
    SimTime recv_time;
    std::uint32_t port;
    std::uint64_t value;
    std::uint64_t mask;
  };

  SimTime now_v = 0;
  SimTime end_v = 1000;
  LpId self_v = 0;
  LpState state_v;
  std::vector<Sent> sent;

  SimTime now() const override { return now_v; }
  SimTime end_time() const override { return end_v; }
  LpId self() const override { return self_v; }
  LpState& state() override { return state_v; }
  void send_wide(LpId target, SimTime recv_time, std::uint32_t port,
                 const std::uint64_t* values, const std::uint64_t* masks,
                 std::uint32_t k) override {
    EXPECT_EQ(k, 1u) << "the mock records one-word sends only";
    sent.push_back({target, recv_time, port, values[0], masks[0]});
  }
};

Event port_event(std::uint32_t port, std::uint64_t value, SimTime t) {
  Event e;
  e.recv_time = t;
  e.port = port;
  e.value = value;
  return e;
}

Event tick_event(SimTime t) { return port_event(kTickPort, 0, t); }

/// A model of one LP, built the way build_model builds every LP.
FlatModel one_lp(GateType type, std::uint32_t arity,
                 const std::vector<FanoutPort>& fanouts,
                 const ModelOptions& opt = {}) {
  FlatModelBuilder builder(opt);
  builder.add(type, arity, fanouts);
  return builder.finish();
}

/// A flip-flop driving port 0 of LP 5, clocked every 10 from t = 10.
FlatModel one_dff(std::uint32_t lanes) {
  ModelOptions opt;
  opt.clock_phase = 10;
  opt.lanes = lanes;
  return one_lp(GateType::kDff, 1, {{5, 0}}, opt);
}

ModelOptions with_lanes(std::uint32_t lanes) {
  ModelOptions opt;
  opt.lanes = lanes;
  return opt;
}

TEST(OneLaneGateLp, EmitsOnOutputChangeOnly) {
  const FlatModel m = one_lp(GateType::kAnd, 2, {{7, 0}, {8, 1}});
  NetlistLp g(m, 0);
  MockContext ctx;
  ctx.state_v = g.initial_state();

  // 01 -> output stays 0: no sends.
  ctx.now_v = 10;
  std::vector<Event> batch{port_event(0, 1, 10)};
  g.execute(ctx, batch);
  EXPECT_TRUE(ctx.sent.empty());
  EXPECT_FALSE(output_bit(ctx.state_v));

  // 11 -> output rises: one event per fanout port, one gate delay later.
  ctx.now_v = 20;
  batch = {port_event(1, 1, 20)};
  g.execute(ctx, batch);
  ASSERT_EQ(ctx.sent.size(), 2u);
  EXPECT_EQ(ctx.sent[0].target, 7u);
  EXPECT_EQ(ctx.sent[0].port, 0u);
  EXPECT_EQ(ctx.sent[0].recv_time, 21u);
  EXPECT_EQ(ctx.sent[0].value, 1u);
  EXPECT_EQ(ctx.sent[1].target, 8u);
  EXPECT_EQ(ctx.sent[1].port, 1u);
  EXPECT_TRUE(output_bit(ctx.state_v));
}

TEST(OneLaneGateLp, BatchAppliesAllPortsAtOnce) {
  const FlatModel m = one_lp(GateType::kAnd, 2, {{7, 0}});
  NetlistLp g(m, 0);
  MockContext ctx;
  ctx.now_v = 5;
  std::vector<Event> batch{port_event(0, 1, 5), port_event(1, 1, 5)};
  g.execute(ctx, batch);
  ASSERT_EQ(ctx.sent.size(), 1u);  // single evaluation, single transition
  EXPECT_EQ(ctx.sent[0].value, 1u);
}

TEST(OneLaneGateLp, PowerOnTickAnnouncesRisenOutput) {
  // NAND with all-zero inputs evaluates to 1 at power-on.
  const FlatModel m = one_lp(GateType::kNand, 2, {{3, 0}});
  NetlistLp g(m, 0);
  MockContext ctx;
  g.init(ctx);  // schedules the power-on tick
  ASSERT_EQ(ctx.sent.size(), 1u);
  EXPECT_EQ(ctx.sent[0].port, kTickPort);
  EXPECT_EQ(ctx.sent[0].recv_time, 0u);
  ctx.sent.clear();

  std::vector<Event> batch{tick_event(0)};
  ctx.now_v = 0;
  g.execute(ctx, batch);
  ASSERT_EQ(ctx.sent.size(), 1u);
  EXPECT_EQ(ctx.sent[0].value, 1u);
}

TEST(OneLaneGateLp, SuppressesSendsBeyondEndTime) {
  const FlatModel m = one_lp(GateType::kNot, 1, {{3, 0}});
  NetlistLp g(m, 0);
  MockContext ctx;
  ctx.now_v = 1000;
  ctx.end_v = 1000;
  std::vector<Event> batch{tick_event(1000)};
  g.execute(ctx, batch);  // output rises but t+1 > end
  EXPECT_TRUE(ctx.sent.empty());
}

TEST(OneLaneGateLp, RejectsIllegalArity) {
  using pls::util::CheckError;
  EXPECT_THROW(one_lp(GateType::kAnd, 0, {}), CheckError);
  EXPECT_THROW(one_lp(GateType::kAnd, 65, {}), CheckError);
}

TEST(OneLaneDffLp, SamplesAtFirstEdgeAfterDataChange) {
  const FlatModel m = one_dff(/*lanes=*/1);
  NetlistLp ff(m, 0);
  MockContext ctx;

  // D rises at t=3: no output yet, but a sampling tick is armed for the
  // next clock edge (clock suppression — see NetlistLp::init).
  ctx.now_v = 3;
  std::vector<Event> batch{port_event(0, 1, 3)};
  ff.execute(ctx, batch);
  ASSERT_EQ(ctx.sent.size(), 1u);
  EXPECT_EQ(ctx.sent[0].port, kTickPort);
  EXPECT_EQ(ctx.sent[0].recv_time, 10u);
  EXPECT_FALSE(output_bit(ctx.state_v));
  ctx.sent.clear();

  // Clock edge at t=10: Q rises; no further tick until D changes again.
  ctx.now_v = 10;
  batch = {tick_event(10)};
  ff.execute(ctx, batch);
  ASSERT_EQ(ctx.sent.size(), 1u);
  EXPECT_EQ(ctx.sent[0].target, 5u);
  EXPECT_EQ(ctx.sent[0].recv_time, 11u);
  EXPECT_EQ(ctx.sent[0].value, 1u);
  EXPECT_TRUE(output_bit(ctx.state_v));
}

TEST(OneLaneDffLp, EdgeComputationIsAligned) {
  // The default clock: period 10, first edge at 5.
  const FlatModel ff = one_lp(GateType::kDff, 1, {});
  EXPECT_EQ(ff.next_edge_at_or_after(0), 5u);
  EXPECT_EQ(ff.next_edge_at_or_after(5), 5u);
  EXPECT_EQ(ff.next_edge_at_or_after(6), 15u);
  EXPECT_EQ(ff.next_edge_at_or_after(15), 15u);
  EXPECT_EQ(ff.next_edge_at_or_after(16), 25u);
}

TEST(OneLaneDffLp, DataOnClockEdgeIsCaptured) {
  const FlatModel m = one_dff(/*lanes=*/1);
  NetlistLp ff(m, 0);
  MockContext ctx;
  ctx.now_v = 10;
  // D event and tick in the same batch: data-first rule captures the 1.
  std::vector<Event> batch{tick_event(10), port_event(0, 1, 10)};
  ff.execute(ctx, batch);
  EXPECT_TRUE(output_bit(ctx.state_v));
}

TEST(OneLaneDffLp, NoEmissionWhenQUnchanged) {
  const FlatModel m = one_dff(/*lanes=*/1);
  NetlistLp ff(m, 0);
  MockContext ctx;
  ctx.now_v = 10;
  std::vector<Event> batch{tick_event(10)};  // D=0, Q=0
  ff.execute(ctx, batch);
  EXPECT_TRUE(ctx.sent.empty());  // no Q change, no tick re-armed
}

TEST(OneLaneLayout, StatesStayInlineWithFaninsPackedIntoA) {
  // One lane keeps every state word inline, so snapshots never copy pooled
  // words: the gate packs fanin p into bit p of `a`, and the flip-flop
  // keeps no armed-lanes word.
  const FlatModel gm = one_lp(GateType::kXor, 3, {{7, 0}});
  NetlistLp g(gm, 0);
  MockContext ctx;
  ctx.state_v = g.initial_state();
  EXPECT_TRUE(ctx.state_v.w.empty());
  ctx.now_v = 4;
  std::vector<Event> batch{port_event(2, 1, 4)};
  g.execute(ctx, batch);
  EXPECT_EQ(ctx.state_v.a, 0b100u);
  EXPECT_EQ(ctx.state_v.b, 1u);
  ctx.now_v = 5;
  batch = {port_event(0, 1, 5), port_event(1, 1, 5)};
  g.execute(ctx, batch);
  EXPECT_EQ(ctx.state_v.a, 0b111u);
  ctx.now_v = 6;
  batch = {port_event(2, 0, 6)};
  g.execute(ctx, batch);
  EXPECT_EQ(ctx.state_v.a, 0b011u);
  EXPECT_EQ(ctx.state_v.b, 0u);
  EXPECT_TRUE(ctx.state_v.w.empty());
  ASSERT_EQ(ctx.sent.size(), 2u);  // rose at t=4, fell at t=6

  const FlatModel fm = one_dff(/*lanes=*/1);
  NetlistLp ff(fm, 0);
  MockContext fctx;
  fctx.state_v = ff.initial_state();
  EXPECT_TRUE(fctx.state_v.w.empty());
  // D rises at t=13 and arms the t=20 edge, where it falls again and the
  // edge captures the 0; D rises at t=25, arms t=30, and Q follows.
  fctx.now_v = 13;
  batch = {port_event(0, 1, 13)};
  ff.execute(fctx, batch);
  EXPECT_TRUE(fctx.state_v.w.empty());
  fctx.now_v = 20;
  batch = {tick_event(20), port_event(0, 0, 20)};
  ff.execute(fctx, batch);
  fctx.now_v = 25;
  batch = {port_event(0, 1, 25)};
  ff.execute(fctx, batch);
  fctx.now_v = 30;
  batch = {tick_event(30)};
  ff.execute(fctx, batch);
  EXPECT_TRUE(fctx.state_v.w.empty());
  EXPECT_EQ(fctx.state_v.a, 1u);
  EXPECT_EQ(fctx.state_v.b, 1u);
  ASSERT_EQ(fctx.sent.size(), 3u);  // ticks armed at t=13 and t=25, then Q
  EXPECT_EQ(fctx.sent[2].recv_time, 31u);
}

TEST(OneLaneInputLp, VectorBitIsPureFunction) {
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(vector_bit(7, 3, i), vector_bit(7, 3, i));
  }
  // Different inputs / indices decorrelate.
  int diff = 0;
  for (int i = 0; i < 64; ++i) {
    diff += vector_bit(7, 3, i) != vector_bit(7, 4, i);
  }
  EXPECT_GT(diff, 10);
}

TEST(OneLaneInputLp, AppliesVectorAndReschedules) {
  // The default stimulus: period 20, seed 7.  The input under test is LP 9
  // behind nine idle inputs, since its id keys the stimulus hash.
  FlatModelBuilder builder(ModelOptions{});
  for (int i = 0; i < 9; ++i) builder.add(GateType::kInput, 0, {});
  builder.add(GateType::kInput, 0, std::vector<FanoutPort>{{2, 0}});
  const FlatModel m = builder.finish();
  NetlistLp in(m, 9);
  MockContext ctx;
  ctx.self_v = 9;
  ctx.now_v = 40;  // vector index 2
  std::vector<Event> batch{tick_event(40)};
  in.execute(ctx, batch);
  const bool expected = vector_bit(7, 9, 2);
  // Sends the new value only if it changed from 0.
  if (expected) {
    ASSERT_EQ(ctx.sent.size(), 2u);
    EXPECT_EQ(ctx.sent[0].value, 1u);
    EXPECT_EQ(ctx.sent[0].recv_time, 41u);
    EXPECT_EQ(ctx.sent[1].port, kTickPort);
  } else {
    ASSERT_EQ(ctx.sent.size(), 1u);
    EXPECT_EQ(ctx.sent[0].port, kTickPort);
  }
  EXPECT_EQ(ctx.sent.back().recv_time, 60u);
}

// ---- batched (bit-parallel) engine -----------------------------------------

Event masked_event(std::uint32_t port, std::uint64_t value,
                   std::uint64_t mask, SimTime t) {
  Event e = port_event(port, value, t);
  e.mask = mask;
  return e;
}

TEST(Lanes, SeedAndMaskContract) {
  EXPECT_EQ(lane_seed(7, 0), 7u);  // lane 0 replays the base-seed run
  for (unsigned j = 1; j < kMaxLanes; ++j) {
    EXPECT_NE(lane_seed(7, j), lane_seed(7, j - 1));
  }
  EXPECT_EQ(lane_mask(1), 1u);
  EXPECT_EQ(lane_mask(3), 0b111u);
  EXPECT_EQ(lane_mask(64), ~std::uint64_t{0});
}

TEST(EvalGateWord, MatchesScalarEvalLaneByLane) {
  // The word evaluator is 64 scalar evaluators in parallel: for every gate
  // type and arity, lane j of the word result equals eval_gate applied to
  // lane j's packed input bits.
  const GateType types[] = {GateType::kBuf,  GateType::kNot,
                            GateType::kAnd,  GateType::kNand,
                            GateType::kOr,   GateType::kNor,
                            GateType::kXor,  GateType::kXnor};
  std::uint64_t x = 0x243f6a8885a308d3ULL;  // deterministic input stream
  auto next = [&x] {
    x ^= x << 13; x ^= x >> 7; x ^= x << 17;
    return x;
  };
  for (GateType type : types) {
    const unsigned max_arity =
        (type == GateType::kBuf || type == GateType::kNot) ? 1 : 4;
    for (unsigned arity = 1; arity <= max_arity; ++arity) {
      std::uint64_t inputs[4] = {};
      for (unsigned p = 0; p < arity; ++p) inputs[p] = next();
      const std::uint64_t word = eval_gate_word(type, inputs, arity);
      for (unsigned lane = 0; lane < 64; ++lane) {
        std::uint64_t packed = 0;
        for (unsigned p = 0; p < arity; ++p) {
          packed |= ((inputs[p] >> lane) & 1) << p;
        }
        EXPECT_EQ((word >> lane) & 1,
                  std::uint64_t{eval_gate(type, packed, arity)})
            << "type " << static_cast<int>(type) << " arity " << arity
            << " lane " << lane;
      }
    }
  }
}

TEST(BatchGateLp, MaskedApplicationAndDiffGatedEmission) {
  const FlatModel m = one_lp(GateType::kAnd, 2, {{7, 0}}, with_lanes(64));
  NetlistLp g(m, 0);
  MockContext ctx;
  ctx.state_v = g.initial_state();
  ASSERT_EQ(ctx.state_v.w.size(), 2u);

  // Port 0 rises on lanes 0-3 only; AND output stays all-zero: no send.
  ctx.now_v = 5;
  std::vector<Event> batch{masked_event(0, ~std::uint64_t{0}, 0xF, 5)};
  g.execute(ctx, batch);
  EXPECT_EQ(ctx.state_v.w[0], 0xFu);  // masked application, not the word
  EXPECT_TRUE(ctx.sent.empty());

  // Port 1 rises on lanes 0-7: output rises exactly where both are 1,
  // and the change mask is the lanes that actually flipped.
  ctx.now_v = 6;
  batch = {masked_event(1, ~std::uint64_t{0}, 0xFF, 6)};
  g.execute(ctx, batch);
  ASSERT_EQ(ctx.sent.size(), 1u);
  EXPECT_EQ(ctx.sent[0].value, 0xFu);
  EXPECT_EQ(ctx.sent[0].mask, 0xFu);
  EXPECT_EQ(ctx.sent[0].recv_time, 7u);

  // Lane 0 alone drops: only lane 0 appears in the next change mask.
  ctx.now_v = 9;
  batch = {masked_event(0, 0, 0b1, 9)};
  g.execute(ctx, batch);
  ASSERT_EQ(ctx.sent.size(), 2u);
  EXPECT_EQ(ctx.sent[1].value, 0xEu);
  EXPECT_EQ(ctx.sent[1].mask, 0b1u);
}

TEST(BatchGateLp, StuckAtForcesOnlyItsLane) {
  // BUF with lane 1 stuck at 1: power-on announces the forced lane, and
  // later input changes ripple through lane 0 while lane 1 never moves.
  ModelOptions opt = with_lanes(2);
  opt.faults = {StuckAtFault{/*gate=*/0, /*stuck_value=*/true}};  // lane 1
  const FlatModel m = one_lp(GateType::kBuf, 1, {{3, 0}}, opt);
  NetlistLp g(m, 0);
  MockContext ctx;
  ctx.state_v = g.initial_state();
  ctx.now_v = 0;
  std::vector<Event> batch{tick_event(0)};
  g.execute(ctx, batch);
  ASSERT_EQ(ctx.sent.size(), 1u);
  EXPECT_EQ(ctx.sent[0].value, 0b10u);
  EXPECT_EQ(ctx.sent[0].mask, 0b10u);

  ctx.now_v = 5;
  batch = {masked_event(0, 0b11, 0b11, 5)};
  g.execute(ctx, batch);
  ASSERT_EQ(ctx.sent.size(), 2u);
  EXPECT_EQ(ctx.sent[1].value, 0b11u);
  EXPECT_EQ(ctx.sent[1].mask, 0b01u);  // lane 1 was already forced to 1
}

TEST(BatchDffLp, TickSamplesOnlyArmedLanes) {
  const FlatModel m = one_dff(/*lanes=*/64);
  NetlistLp ff(m, 0);
  MockContext ctx;
  ctx.state_v = ff.initial_state();
  ASSERT_EQ(ctx.state_v.w.size(), 1u);

  // Lane 1's D rises at t=15: lane 1 is armed and a tick pends at t=20.
  ctx.now_v = 15;
  std::vector<Event> batch{masked_event(0, 0b10, 0b10, 15)};
  ff.execute(ctx, batch);
  ASSERT_EQ(ctx.sent.size(), 1u);
  EXPECT_EQ(ctx.sent[0].port, kTickPort);
  EXPECT_EQ(ctx.sent[0].recv_time, 20u);
  EXPECT_EQ(ctx.state_v.w[0], 0b10u);
  ctx.sent.clear();

  // At the t=20 edge lane 2's D changes in the same batch.  Lane 1 armed
  // this edge and samples; lane 2 did not — its scalar twin would capture
  // one period later, so it re-arms t=30 instead of sampling now.
  ctx.now_v = 20;
  batch = {tick_event(20), masked_event(0, 0b100, 0b100, 20)};
  ff.execute(ctx, batch);
  ASSERT_EQ(ctx.sent.size(), 2u);
  EXPECT_EQ(ctx.sent[0].port, kTickPort);  // re-armed for lane 2
  EXPECT_EQ(ctx.sent[0].recv_time, 30u);
  EXPECT_EQ(ctx.sent[1].target, 5u);
  EXPECT_EQ(ctx.sent[1].value, 0b10u);  // Q: only lane 1 captured
  EXPECT_EQ(ctx.sent[1].mask, 0b10u);
  EXPECT_EQ(ctx.state_v.w[0], 0b100u);
  ctx.sent.clear();

  // t=30: lane 2 finally samples; no lane re-arms.
  ctx.now_v = 30;
  batch = {tick_event(30)};
  ff.execute(ctx, batch);
  ASSERT_EQ(ctx.sent.size(), 1u);
  EXPECT_EQ(ctx.sent[0].value, 0b110u);
  EXPECT_EQ(ctx.sent[0].mask, 0b100u);
  EXPECT_EQ(ctx.state_v.w[0], 0u);
}

TEST(BatchDffLp, PhaseEdgeSamplesEveryLane) {
  // The init edge is the one tick every scalar run owns: all lanes sample.
  const FlatModel m = one_dff(/*lanes=*/64);
  NetlistLp ff(m, 0);
  MockContext ctx;
  ctx.state_v = ff.initial_state();
  ctx.now_v = 10;
  std::vector<Event> batch{tick_event(10),
                           masked_event(0, 0b101, 0b101, 10)};
  ff.execute(ctx, batch);
  ASSERT_EQ(ctx.sent.size(), 1u);  // no re-arm: everyone sampled
  EXPECT_EQ(ctx.sent[0].value, 0b101u);
  EXPECT_EQ(ctx.sent[0].mask, 0b101u);
}

TEST(BatchInputLp, VectorWordPacksPerLaneSeeds) {
  for (std::uint64_t n = 0; n < 8; ++n) {
    const std::uint64_t w =
        vector_word(/*seed=*/7, /*lp=*/3, n, /*lanes=*/8, /*uniform=*/false);
    EXPECT_LT(w, 1u << 8);  // lanes above the count stay clear
    for (unsigned j = 0; j < 8; ++j) {
      EXPECT_EQ((w >> j) & 1,
                std::uint64_t{vector_bit(lane_seed(7, j), 3, n)})
          << "vector " << n << " lane " << j;
    }
    // Uniform mode broadcasts the base-seed bit to every lane.
    const std::uint64_t u = vector_word(7, 3, n, 8, /*uniform=*/true);
    EXPECT_EQ(u, vector_bit(7, 3, n) ? lane_mask(8) : std::uint64_t{0});
  }
}

TEST(Lanes, SampleFaultsPicksDistinctSites) {
  const auto c = circuit::make_iscas_like("s5378", 3);
  const auto faults = sample_faults(c, 63, /*seed=*/11);
  ASSERT_EQ(faults.size(), 63u);
  std::vector<circuit::GateId> gates;
  for (const auto& f : faults) gates.push_back(f.gate);
  std::sort(gates.begin(), gates.end());
  EXPECT_EQ(std::adjacent_find(gates.begin(), gates.end()), gates.end());
}

// ---- elaboration -----------------------------------------------------------

TEST(BuildModel, OneLpPerGateWithCorrectKinds) {
  // Every lane count elaborates the same three word-wise kinds, and LP g
  // is the behaviour of the model's record g.
  const auto c = circuit::make_iscas_like("s5378", 3);
  for (const std::uint32_t lanes : {1u, 4u, 64u}) {
    const SimModel model = build_model(c, with_lanes(lanes));
    ASSERT_EQ(model.lps.size(), c.size());
    ASSERT_EQ(model.flat->size(), c.size());
    for (circuit::GateId g = 0; g < c.size(); ++g) {
      const auto* lp = dynamic_cast<const NetlistLp*>(model.lps[g].get());
      ASSERT_NE(lp, nullptr);
      EXPECT_EQ(&lp->model(), model.flat.get());
      EXPECT_EQ(lp->id(), g);
      const LpKind kind = model.flat->lp(g).kind;
      switch (c.type(g)) {
        case GateType::kInput:
          EXPECT_EQ(kind, LpKind::kInput);
          break;
        case GateType::kDff:
          EXPECT_EQ(kind, LpKind::kDff);
          break;
        default:
          EXPECT_EQ(kind, LpKind::kGate);
      }
    }
  }
}

TEST(BuildModel, PortWiringMatchesFaninIndices) {
  // b drives g on port 1 (second fanin).
  circuit::Circuit c;
  const auto a = c.add_input("a");
  const auto b = c.add_input("b");
  const auto g = c.add_gate("g", GateType::kAnd, {a, b});
  c.freeze();
  const SimModel model = build_model(c);

  // Drive b's LP with a tick and observe where it sends: port 1 of g.
  MockContext ctx;
  ctx.self_v = b;
  ctx.now_v = 0;
  // Force a change: vector_bit may be 0; try a few vector indices.
  bool sent_something = false;
  for (int vec = 0; vec < 8 && !sent_something; ++vec) {
    ctx.now_v = vec * 20;
    std::vector<Event> batch{tick_event(ctx.now_v)};
    model.lps[b]->execute(ctx, batch);
    for (const auto& s : ctx.sent) {
      if (s.port != kTickPort) {
        EXPECT_EQ(s.target, g);
        EXPECT_EQ(s.port, 1u);
        sent_something = true;
      }
    }
  }
  EXPECT_TRUE(sent_something);
}

TEST(BuildModel, PortsRunByTargetThenPin) {
  // a drives g1 on pin 1 and g2 on pins 0 and 2.  Its ports, and so its
  // sends, run by target, then by pin.
  circuit::Circuit c;
  const auto a = c.add_input("a");
  const auto b = c.add_input("b");
  const auto g1 = c.add_gate("g1", GateType::kAnd, {b, a});
  const auto g2 = c.add_gate("g2", GateType::kOr, {a, b, a});
  c.freeze();
  const SimModel model = build_model(c);
  const auto ports = model.flat->fanouts(model.flat->lp(a));
  ASSERT_EQ(ports.size(), 3u);
  EXPECT_EQ(ports[0].target, g1);
  EXPECT_EQ(ports[0].port, 1u);
  EXPECT_EQ(ports[1].target, g2);
  EXPECT_EQ(ports[1].port, 0u);
  EXPECT_EQ(ports[2].target, g2);
  EXPECT_EQ(ports[2].port, 2u);
}

TEST(BuildModel, RequiresFrozenCircuit) {
  circuit::Circuit c;
  c.add_input("a");
  EXPECT_THROW(build_model(c), pls::util::CheckError);
}

TEST(BuildModel, ValidatesLaneAndFaultConfiguration) {
  const auto c = circuit::make_iscas_like("s5378", 3);
  ModelOptions opt;
  opt.lanes = kMaxLanes + 1;
  EXPECT_THROW(build_model(c, opt), pls::util::CheckError);
  opt.lanes = 0;
  EXPECT_THROW(build_model(c, opt), pls::util::CheckError);
  opt.lanes = 65;  // multi-word widths are legal up to kMaxLanes
  EXPECT_NO_THROW(build_model(c, opt));
  opt.lanes = kMaxLanes;
  EXPECT_NO_THROW(build_model(c, opt));

  // Faults need lanes >= faults + 1 (lane 0 is the fault-free reference).
  opt.lanes = 1;
  opt.faults = {StuckAtFault{0, true}};
  EXPECT_THROW(build_model(c, opt), pls::util::CheckError);
  opt.lanes = 2;
  opt.faults = {StuckAtFault{0, true}, StuckAtFault{1, false}};
  EXPECT_THROW(build_model(c, opt), pls::util::CheckError);
  opt.lanes = 3;
  EXPECT_NO_THROW(build_model(c, opt));
  // A fault site outside the circuit is rejected.
  opt.faults = {StuckAtFault{static_cast<circuit::GateId>(c.size()), true}};
  EXPECT_THROW(build_model(c, opt), pls::util::CheckError);

  // Clock and stimulus periods and the first clock edge must be positive.
  for (const auto field : {&ModelOptions::clock_period,
                           &ModelOptions::clock_phase,
                           &ModelOptions::stim_period}) {
    ModelOptions bad;
    bad.*field = 0;
    EXPECT_THROW(build_model(c, bad), pls::util::CheckError);
  }
}

}  // namespace
}  // namespace pls::logicsim
