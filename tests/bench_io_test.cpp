// Tests for the ISCAS'89 .bench parser/writer, including a from-memory copy
// of the real s27 benchmark and a parse→write→parse round-trip property.

#include <gtest/gtest.h>

#include "circuit/bench_io.hpp"
#include "circuit/generator.hpp"

namespace pls::circuit {
namespace {

// The ISCAS'89 s27 benchmark: 4 inputs, 1 output, 3 flip-flops, 10 gates.
constexpr const char* kS27 = R"(# s27 benchmark
INPUT(G0)
INPUT(G1)
INPUT(G2)
INPUT(G3)
OUTPUT(G17)

G5 = DFF(G10)
G6 = DFF(G11)
G7 = DFF(G13)
G14 = NOT(G0)
G17 = NOT(G11)
G8 = AND(G14, G6)
G15 = OR(G12, G8)
G16 = OR(G3, G8)
G9 = NAND(G16, G15)
G10 = NOR(G14, G11)
G11 = NOR(G5, G9)
G12 = NOR(G1, G7)
G13 = NAND(G2, G12)
)";

TEST(BenchParser, ParsesS27) {
  const Circuit c = parse_bench_string(kS27, "s27");
  EXPECT_EQ(c.primary_inputs().size(), 4u);
  EXPECT_EQ(c.primary_outputs().size(), 1u);
  EXPECT_EQ(c.flip_flops().size(), 3u);
  EXPECT_EQ(c.num_combinational(), 10u);
  EXPECT_TRUE(c.is_output(c.find("G17")));
  // Spot-check connectivity: G8 = AND(G14, G6).
  const GateId g8 = c.find("G8");
  ASSERT_NE(g8, kInvalidGate);
  EXPECT_EQ(c.type(g8), GateType::kAnd);
  ASSERT_EQ(c.fanins(g8).size(), 2u);
  EXPECT_EQ(c.fanins(g8)[0], c.find("G14"));
  EXPECT_EQ(c.fanins(g8)[1], c.find("G6"));
}

TEST(BenchParser, ForwardReferencesWork) {
  // G10 references G11 which is defined later — legal.
  const Circuit c = parse_bench_string(kS27);
  EXPECT_NE(c.find("G10"), kInvalidGate);
}

TEST(BenchParser, CaseInsensitiveKeywordsAndAliases) {
  const Circuit c = parse_bench_string(
      "input(a)\ninput(b)\noutput(y)\n"
      "n = inv(a)\nbb = buff(b)\nf = ff(n)\ny = nand(n, bb, f)\n");
  EXPECT_EQ(c.type(c.find("n")), GateType::kNot);
  EXPECT_EQ(c.type(c.find("bb")), GateType::kBuf);
  EXPECT_EQ(c.type(c.find("f")), GateType::kDff);
  EXPECT_EQ(c.fanins(c.find("y")).size(), 3u);
}

TEST(BenchParser, CommentsAndBlankLinesIgnored) {
  const Circuit c = parse_bench_string(
      "# header\n\nINPUT(a)  # trailing comment\n\n  \nOUTPUT(g)\n"
      "g = NOT(a)\n");
  EXPECT_EQ(c.size(), 2u);
}

TEST(BenchParser, CrlfLineEndingsParse) {
  // ISCAS archives ship DOS-format files; every '\n' becomes "\r\n" and
  // the stray '\r' must not end up inside signal names or keywords.
  std::string crlf(kS27);
  std::string::size_type pos = 0;
  while ((pos = crlf.find('\n', pos)) != std::string::npos) {
    crlf.replace(pos, 1, "\r\n");
    pos += 2;
  }
  const Circuit c = parse_bench_string(crlf, "s27crlf");
  EXPECT_EQ(c.primary_inputs().size(), 4u);
  EXPECT_EQ(c.num_combinational(), 10u);
  EXPECT_NE(c.find("G17"), kInvalidGate);  // no "G17\r" ghost signal
}

TEST(BenchParser, UndefinedSignalFails) {
  EXPECT_THROW(parse_bench_string("INPUT(a)\ng = AND(a, ghost)\n"),
               BenchParseError);
}

TEST(BenchParser, UndefinedOutputFails) {
  EXPECT_THROW(parse_bench_string("INPUT(a)\nOUTPUT(ghost)\n"),
               BenchParseError);
}

TEST(BenchParser, DuplicateDefinitionFails) {
  EXPECT_THROW(
      parse_bench_string("INPUT(a)\ng = NOT(a)\ng = BUF(a)\n"),
      BenchParseError);
  EXPECT_THROW(parse_bench_string("INPUT(a)\nINPUT(a)\n"), BenchParseError);
}

TEST(BenchParser, UnknownGateTypeFails) {
  EXPECT_THROW(parse_bench_string("INPUT(a)\ng = FROB(a)\n"),
               BenchParseError);
}

TEST(BenchParser, MalformedLineFails) {
  EXPECT_THROW(parse_bench_string("INPUT a\n"), BenchParseError);
  EXPECT_THROW(parse_bench_string("g = AND(a\n"), BenchParseError);
  EXPECT_THROW(parse_bench_string("g = (a)\n"), BenchParseError);
  EXPECT_THROW(parse_bench_string("WIBBLE(a)\n"), BenchParseError);
}

TEST(BenchParser, EmptyFaninFails) {
  EXPECT_THROW(parse_bench_string("INPUT(a)\ng = AND(a, )\n"),
               BenchParseError);
  EXPECT_THROW(parse_bench_string("INPUT(a)\ng = AND()\n"), BenchParseError);
}

TEST(BenchParser, CombinationalCycleFails) {
  EXPECT_THROW(parse_bench_string(
                   "INPUT(a)\nx = AND(a, y)\ny = AND(a, x)\n"),
               BenchParseError);
}

TEST(BenchParser, ErrorCarriesLineNumber) {
  try {
    parse_bench_string("INPUT(a)\n\ng = FROB(a)\n");
    FAIL() << "expected BenchParseError";
  } catch (const BenchParseError& e) {
    EXPECT_EQ(e.line(), 3);
  }
}

TEST(BenchParser, DuplicateInputErrorCarriesLineNumber) {
  try {
    parse_bench_string("INPUT(a)\nINPUT(b)\n\nINPUT(a)\ng = AND(a, b)\n");
    FAIL() << "expected BenchParseError";
  } catch (const BenchParseError& e) {
    EXPECT_EQ(e.line(), 4);
    EXPECT_NE(std::string(e.what()).find("'a'"), std::string::npos);
  }
}

TEST(BenchParser, UndefinedOutputErrorCarriesLineNumber) {
  try {
    parse_bench_string("INPUT(a)\nOUTPUT(g)\nOUTPUT(zz)\ng = NOT(a)\n");
    FAIL() << "expected BenchParseError";
  } catch (const BenchParseError& e) {
    EXPECT_EQ(e.line(), 3);
    EXPECT_NE(std::string(e.what()).find("'zz'"), std::string::npos);
  }
}

TEST(BenchParser, CombinationalCycleErrorCarriesLineNumber) {
  // x and y feed each other with no flip-flop in between; the error names
  // the gate the cycle was found through and that gate's line.
  try {
    parse_bench_string(
        "INPUT(a)\nOUTPUT(y)\ng = NOT(a)\n# loop\nx = AND(g, y)\n"
        "y = NOT(x)\n");
    FAIL() << "expected BenchParseError";
  } catch (const BenchParseError& e) {
    EXPECT_EQ(e.line(), 5);
    EXPECT_NE(std::string(e.what()).find("cycle through gate 'x'"),
              std::string::npos);
  }
}

TEST(BenchParser, UnknownGateTypeErrorNamesLineAndGate) {
  try {
    parse_bench_string("INPUT(a)\ng = NOT(a)\nbad = FROB(g)\n");
    FAIL() << "expected BenchParseError";
  } catch (const BenchParseError& e) {
    EXPECT_EQ(e.line(), 3);
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("FROB"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("'bad'"), std::string::npos);
  }
}

TEST(BenchParser, ArityErrorCarriesLineNumber) {
  // A fanin count the gate type does not allow names the gate's own line,
  // for one-input types given two and n-ary types given one.
  struct Case {
    const char* text;
    int line;
    const char* gate;
  };
  const Case cases[] = {
      {"INPUT(a)\nINPUT(b)\n\ng = NOT(a, b)\n", 4, "'g'"},
      {"INPUT(a)\nINPUT(b)\nOUTPUT(q)\nq = DFF(a, b)\n", 4, "'q'"},
      {"INPUT(a)\nx = NOT(a)\ny = AND(x)\n", 3, "'y'"},
  };
  for (const Case& k : cases) {
    try {
      parse_bench_string(k.text);
      FAIL() << "expected BenchParseError for " << k.text;
    } catch (const BenchParseError& e) {
      EXPECT_EQ(e.line(), k.line) << e.what();
      EXPECT_NE(std::string(e.what()).find(k.gate), std::string::npos)
          << e.what();
    }
  }
}

TEST(BenchWriter, RoundTripPreservesStructure) {
  const Circuit orig = parse_bench_string(kS27, "s27");
  const std::string text = write_bench_string(orig);
  const Circuit back = parse_bench_string(text, "s27rt");

  ASSERT_EQ(back.size(), orig.size());
  EXPECT_EQ(back.primary_inputs().size(), orig.primary_inputs().size());
  EXPECT_EQ(back.primary_outputs().size(), orig.primary_outputs().size());
  EXPECT_EQ(back.flip_flops().size(), orig.flip_flops().size());
  for (GateId g = 0; g < orig.size(); ++g) {
    const GateId h = back.find(orig.gate_name(g));
    ASSERT_NE(h, kInvalidGate) << orig.gate_name(g);
    EXPECT_EQ(back.type(h), orig.type(g));
    EXPECT_EQ(back.is_output(h), orig.is_output(g));
    const auto of = orig.fanins(g);
    const auto bf = back.fanins(h);
    ASSERT_EQ(bf.size(), of.size());
    for (std::size_t i = 0; i < of.size(); ++i) {
      EXPECT_EQ(back.gate_name(bf[i]), orig.gate_name(of[i]));
    }
  }
}

TEST(BenchWriter, RoundTripOnGeneratedCircuit) {
  GeneratorSpec spec;
  spec.num_comb_gates = 300;
  spec.num_inputs = 12;
  spec.num_outputs = 6;
  spec.num_dffs = 20;
  spec.seed = 99;
  const Circuit orig = generate(spec);
  const Circuit back = parse_bench_string(write_bench_string(orig), "rt");
  EXPECT_EQ(back.size(), orig.size());
  EXPECT_EQ(back.num_edges(), orig.num_edges());
  EXPECT_EQ(back.flip_flops().size(), orig.flip_flops().size());
  EXPECT_EQ(back.primary_outputs().size(), orig.primary_outputs().size());
}

TEST(BenchFile, MissingFileThrows) {
  EXPECT_THROW(parse_bench_file("/nonexistent/die.bench"),
               std::runtime_error);
}

TEST(BenchFile, WriteAndReadBack) {
  const std::string path = "/tmp/pls_s27_test.bench";
  const Circuit orig = parse_bench_string(kS27, "s27");
  write_bench_file(path, orig);
  const Circuit back = parse_bench_file(path);
  EXPECT_EQ(back.name(), "pls_s27_test");
  EXPECT_EQ(back.size(), orig.size());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace pls::circuit
