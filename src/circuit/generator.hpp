#pragma once
// Deterministic ISCAS'89-like circuit generators.
//
// The paper evaluates on the public ISCAS'89 benchmarks s5378, s9234 and
// s15850 (its Table 1 lists inputs / gates / outputs).  The netlist files
// are not redistributable inside this repository, so we generate structural
// stand-ins with exactly the published interface counts and closely matched
// internals: flip-flop counts, bounded fan-in, skewed fan-out with a few
// high-fanout control-style nets, realistic logic depth, and sequential
// feedback through the flip-flops.  Partitioner quality and Time Warp
// dynamics depend on this graph structure rather than on the specific
// Boolean functions (docs/ARCHITECTURE.md, "Modeled testbed and
// stand-ins").  Real .bench files, when available, drop in through
// parse_bench_file() with no other change.

#include <cstdint>
#include <string>
#include <string_view>

#include "circuit/circuit.hpp"

namespace pls::circuit {

/// Parameters of the synthetic netlist generator.  Defaults produce a
/// mid-size circuit suitable for tests.
struct GeneratorSpec {
  std::string name = "synthetic";
  std::size_t num_inputs = 16;
  std::size_t num_outputs = 8;
  std::size_t num_comb_gates = 500;  ///< combinational gates (excl. DFFs)
  std::size_t num_dffs = 32;
  std::uint32_t depth = 0;  ///< target logic depth; 0 = auto from size
  std::uint64_t seed = 1;

  // Fixed gate-type mix (fractions of combinational gates; renormalized).
  static constexpr double frac_not = 0.22;
  static constexpr double frac_buf = 0.06;
  static constexpr double frac_nand = 0.24;
  static constexpr double frac_and = 0.16;
  static constexpr double frac_nor = 0.14;
  static constexpr double frac_or = 0.10;
  static constexpr double frac_xor = 0.05;
  static constexpr double frac_xnor = 0.03;

  /// Probability that a fanin pick is redirected to the level's designated
  /// hub gate; produces the small population of very-high-fanout nets that
  /// real netlists (clock/control trees) exhibit.
  static constexpr double hub_bias = 0.08;
};

/// Generate a frozen circuit from the spec.  Deterministic in spec.seed.
/// Guarantees: exact input/output/comb-gate/DFF counts; every combinational
/// gate is reachable from a primary input or flip-flop; no combinational
/// cycles; no gate above max_arity fanins; every non-output gate drives at
/// least one sink where the level structure and the arity bound allow it.
Circuit generate(const GeneratorSpec& spec);

/// The three benchmark stand-ins, keyed by the paper's names
/// ("s5378", "s9234", "s15850").  Counts match the paper's Table 1:
///   s5378  — 35 in, 2779 gates,  49 out (179 DFFs)
///   s9234  — 36 in, 5597 gates,  39 out (211 DFFs)
///   s15850 — 77 in, 10383 gates, 150 out (534 DFFs)
/// Throws util::CheckError for unknown names.
Circuit make_iscas_like(std::string_view which, std::uint64_t seed = 2000);

/// Spec lookup for the three benchmarks (exposed so harnesses can scale).
GeneratorSpec iscas_spec(std::string_view which, std::uint64_t seed = 2000);

/// `spec` shrunk or grown to `scale` (in (0, 4]) times its combinational
/// gates and flip-flops, clamped so that generate() accepts it at any
/// scale: at least 4 gates and 4 flip-flops, at least one input, and at
/// most a quarter of the gates (plus one) as outputs.  A count that needs
/// no clamp is exactly floor(count * scale), so scale 1 returns the three
/// benchmark specs unchanged.
GeneratorSpec scale_spec(GeneratorSpec spec, double scale);

}  // namespace pls::circuit
