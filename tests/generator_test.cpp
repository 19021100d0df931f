// Tests for the ISCAS'89-like circuit generator: exact interface counts
// (the paper's Table 1), structural sanity, determinism, and parameterized
// sweeps over sizes and seeds.

#include <gtest/gtest.h>

#include "circuit/circuit_stats.hpp"
#include "circuit/generator.hpp"
#include "circuit/levelize.hpp"
#include "util/check.hpp"

namespace pls::circuit {
namespace {

TEST(IscasSpecs, Table1CountsAreExact) {
  // Paper Table 1: Circuit / Inputs / Gates / Outputs.
  struct Row {
    const char* name;
    std::size_t inputs, gates, outputs;
  };
  for (const Row& row : {Row{"s5378", 35, 2779, 49},
                         Row{"s9234", 36, 5597, 39},
                         Row{"s15850", 77, 10383, 150}}) {
    const Circuit c = make_iscas_like(row.name);
    const CircuitStats s = compute_stats(c);
    EXPECT_EQ(s.inputs, row.inputs) << row.name;
    EXPECT_EQ(s.comb_gates, row.gates) << row.name;
    EXPECT_EQ(s.outputs, row.outputs) << row.name;
  }
}

TEST(IscasSpecs, UnknownNameThrows) {
  EXPECT_THROW(make_iscas_like("s99999"), util::CheckError);
}

TEST(Generator, DeterministicForEqualSeeds) {
  GeneratorSpec spec;
  spec.num_comb_gates = 400;
  spec.seed = 5;
  const Circuit a = generate(spec);
  const Circuit b = generate(spec);
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (GateId g = 0; g < a.size(); ++g) {
    EXPECT_EQ(a.type(g), b.type(g));
    const auto fa = a.fanins(g);
    const auto fb = b.fanins(g);
    ASSERT_EQ(fa.size(), fb.size());
    for (std::size_t i = 0; i < fa.size(); ++i) EXPECT_EQ(fa[i], fb[i]);
  }
}

TEST(Generator, DifferentSeedsDiffer) {
  GeneratorSpec spec;
  spec.num_comb_gates = 400;
  spec.seed = 5;
  const Circuit a = generate(spec);
  spec.seed = 6;
  const Circuit b = generate(spec);
  // Same counts by construction, but wiring must differ somewhere.
  ASSERT_EQ(a.size(), b.size());
  bool differs = a.num_edges() != b.num_edges();
  for (GateId g = 0; !differs && g < a.size(); ++g) {
    differs = a.type(g) != b.type(g);
    if (!differs) {
      const auto fa = a.fanins(g);
      const auto fb = b.fanins(g);
      differs = !std::equal(fa.begin(), fa.end(), fb.begin(), fb.end());
    }
  }
  EXPECT_TRUE(differs);
}

TEST(Generator, RespectsDepthTarget) {
  GeneratorSpec spec;
  spec.num_comb_gates = 600;
  spec.depth = 12;
  const Circuit c = generate(spec);
  EXPECT_EQ(levelize(c).max_level, 12u);
}

TEST(Generator, EveryCombGateReachableFromSource) {
  const Circuit c = make_iscas_like("s5378", 3);
  // BFS from all sources over fanout edges.
  std::vector<std::uint8_t> seen(c.size(), 0);
  std::vector<GateId> stack;
  for (GateId g : c.primary_inputs()) {
    stack.push_back(g);
    seen[g] = 1;
  }
  for (GateId g : c.flip_flops()) {
    stack.push_back(g);
    seen[g] = 1;
  }
  while (!stack.empty()) {
    const GateId g = stack.back();
    stack.pop_back();
    for (GateId out : c.fanouts(g)) {
      if (!seen[out]) {
        seen[out] = 1;
        stack.push_back(out);
      }
    }
  }
  for (GateId g = 0; g < c.size(); ++g) {
    EXPECT_TRUE(seen[g]) << "gate " << c.gate_name(g) << " unreachable";
  }
}

TEST(Generator, MostGatesDriveSomething) {
  const Circuit c = make_iscas_like("s9234", 3);
  std::size_t dangling = 0;
  for (GateId g = 0; g < c.size(); ++g) {
    if (c.fanouts(g).empty() && !c.is_output(g)) ++dangling;
  }
  // The generator wires dangling gates into higher levels; only a few
  // top-level stragglers may remain.
  EXPECT_LT(dangling, c.size() / 100);
}

TEST(Generator, HasSequentialFeedback) {
  const Circuit c = make_iscas_like("s5378", 3);
  // Every DFF must have its D input connected to combinational logic.
  for (GateId ff : c.flip_flops()) {
    ASSERT_EQ(c.fanins(ff).size(), 1u);
    EXPECT_NE(c.type(c.fanins(ff)[0]), GateType::kInput);
  }
}

TEST(Generator, FanoutDistributionIsSkewed) {
  // Real netlists have a few high-fanout nets (hub bias).
  const CircuitStats s = compute_stats(make_iscas_like("s9234", 3));
  EXPECT_GT(s.max_fanout, 20u);
  EXPECT_LT(s.avg_fanout, 4.0);
  EXPECT_GT(s.avg_fanout, 1.0);
}

TEST(Generator, RejectsImpossibleSpecs) {
  GeneratorSpec spec;
  spec.num_inputs = 0;
  EXPECT_THROW(generate(spec), util::CheckError);
  spec = GeneratorSpec{};
  spec.num_comb_gates = 4;
  spec.num_outputs = 10;
  EXPECT_THROW(generate(spec), util::CheckError);
}

TEST(Generator, TinySpecWorks) {
  GeneratorSpec spec;
  spec.num_inputs = 2;
  spec.num_outputs = 1;
  spec.num_comb_gates = 5;
  spec.num_dffs = 1;
  spec.depth = 2;
  const Circuit c = generate(spec);
  EXPECT_EQ(c.size(), 8u);
  EXPECT_EQ(c.num_combinational(), 5u);
}

TEST(ScaleSpec, ScalesGatesAndFlipFlopsAndKeepsTheRest) {
  const GeneratorSpec base = iscas_spec("s9234", 7);
  const GeneratorSpec same = scale_spec(base, 1.0);
  EXPECT_EQ(same.num_comb_gates, base.num_comb_gates);
  EXPECT_EQ(same.num_dffs, base.num_dffs);
  EXPECT_EQ(same.num_inputs, base.num_inputs);
  EXPECT_EQ(same.num_outputs, base.num_outputs);
  EXPECT_EQ(same.seed, base.seed);

  const GeneratorSpec tenth = scale_spec(base, 0.1);
  EXPECT_EQ(tenth.num_comb_gates, 559u);
  EXPECT_EQ(tenth.num_dffs, 21u);
  EXPECT_EQ(tenth.num_inputs, base.num_inputs);
  EXPECT_EQ(tenth.num_outputs, base.num_outputs);

  EXPECT_THROW(scale_spec(base, 0.0), util::CheckError);
  EXPECT_THROW(scale_spec(base, 4.5), util::CheckError);
}

TEST(ScaleSpec, AnyTinyScaleBuildsAValidCircuit) {
  // The generator leaves a source dangling rather than push a gate past
  // max_arity, and scale_spec clamps every count it checks.
  for (const char* name : {"s5378", "s9234", "s15850"}) {
    for (const std::uint64_t seed : {1u, 7u, 2000u}) {
      for (const double scale : {0.0001, 0.0005, 0.002, 0.01}) {
        const GeneratorSpec spec = scale_spec(iscas_spec(name, seed), scale);
        EXPECT_GE(spec.num_comb_gates, 4u);
        EXPECT_GE(spec.num_dffs, 4u);
        EXPECT_LE(spec.num_outputs, spec.num_comb_gates / 4 + 1);
        const Circuit c = generate(spec);  // freeze() checks every arity
        EXPECT_EQ(c.num_combinational(), spec.num_comb_gates)
            << name << " seed " << seed << " scale " << scale;
        EXPECT_EQ(c.primary_outputs().size(), spec.num_outputs);
      }
    }
  }
}

// ---- property sweep over sizes and seeds ---------------------------------

struct GenParam {
  std::size_t gates;
  std::size_t inputs;
  std::size_t dffs;
  std::uint64_t seed;
};

class GeneratorSweep : public ::testing::TestWithParam<GenParam> {};

TEST_P(GeneratorSweep, StructuralInvariantsHold) {
  const GenParam p = GetParam();
  GeneratorSpec spec;
  spec.num_comb_gates = p.gates;
  spec.num_inputs = p.inputs;
  spec.num_outputs = std::max<std::size_t>(1, p.gates / 50);
  spec.num_dffs = p.dffs;
  spec.seed = p.seed;
  const Circuit c = generate(spec);  // freeze() validates arity + acyclic

  EXPECT_EQ(c.primary_inputs().size(), spec.num_inputs);
  EXPECT_EQ(c.primary_outputs().size(), spec.num_outputs);
  EXPECT_EQ(c.flip_flops().size(), spec.num_dffs);
  EXPECT_EQ(c.num_combinational(), spec.num_comb_gates);

  // Levelization must succeed (acyclic combinational part) and fanins of
  // every gate respect the declared arity bounds.
  const auto lv = levelize(c);
  EXPECT_GE(lv.max_level, 1u);
  for (GateId g = 0; g < c.size(); ++g) {
    const auto n = static_cast<int>(c.fanins(g).size());
    EXPECT_GE(n, min_arity(c.type(g)));
    EXPECT_LE(n, max_arity(c.type(g)));
  }
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndSeeds, GeneratorSweep,
    ::testing::Values(GenParam{60, 4, 0, 1}, GenParam{60, 4, 8, 2},
                      GenParam{250, 16, 12, 3}, GenParam{250, 16, 12, 99},
                      GenParam{1000, 30, 64, 4}, GenParam{1000, 30, 64, 77},
                      GenParam{2779, 35, 179, 5},
                      GenParam{5597, 36, 211, 6}));

}  // namespace
}  // namespace pls::circuit
