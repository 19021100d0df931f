#pragma once
// Fundamental gate-level netlist types shared by the whole stack.
//
// Vertices of the paper's circuit graph are logic gates; edges are the
// signals interconnecting them (paper §3).  A GateId indexes into
// Circuit's dense gate array and doubles as the logical-process id in the
// Time Warp layer, so all cross-module maps are plain vectors.

#include <cstdint>
#include <string_view>

namespace pls::circuit {

using GateId = std::uint32_t;
inline constexpr GateId kInvalidGate = ~GateId{0};

/// Gate kinds supported by the ISCAS'89 .bench format plus an explicit
/// primary-input kind.  DFF is the only sequential element (edge-triggered
/// D flip-flop; see docs/ARCHITECTURE.md, "Modeled testbed and stand-ins",
/// for the clocking substitution).
enum class GateType : std::uint8_t {
  kInput,  ///< primary input (no fanin)
  kBuf,    ///< buffer (1 fanin)
  kNot,    ///< inverter (1 fanin)
  kAnd,
  kNand,
  kOr,
  kNor,
  kXor,
  kXnor,
  kDff,  ///< D flip-flop (1 fanin = D; output is the stored state Q)
};

inline constexpr std::string_view to_string(GateType t) noexcept {
  switch (t) {
    case GateType::kInput: return "INPUT";
    case GateType::kBuf: return "BUF";
    case GateType::kNot: return "NOT";
    case GateType::kAnd: return "AND";
    case GateType::kNand: return "NAND";
    case GateType::kOr: return "OR";
    case GateType::kNor: return "NOR";
    case GateType::kXor: return "XOR";
    case GateType::kXnor: return "XNOR";
    case GateType::kDff: return "DFF";
  }
  return "?";
}

/// True for gate types that act as sources when the sequential circuit is
/// cut into a combinational DAG (primary inputs and flip-flop outputs).
inline constexpr bool is_sequential_source(GateType t) noexcept {
  return t == GateType::kInput || t == GateType::kDff;
}

/// Minimum/maximum legal fanin arity for each type (kInput has none;
/// multi-input gates accept 2+ inputs as in the .bench format).
inline constexpr int min_arity(GateType t) noexcept {
  switch (t) {
    case GateType::kInput: return 0;
    case GateType::kBuf:
    case GateType::kNot:
    case GateType::kDff: return 1;
    default: return 2;
  }
}

inline constexpr int max_arity(GateType t) noexcept {
  switch (t) {
    case GateType::kInput: return 0;
    case GateType::kBuf:
    case GateType::kNot:
    case GateType::kDff: return 1;
    default: return 64;  // .bench gates are n-ary; bound for sanity
  }
}

}  // namespace pls::circuit
