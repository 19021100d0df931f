#pragma once
// Circuit: the gate-level netlist / circuit-graph model.
//
// This is the directed graph G = (V, E) of paper §3: vertices are gates,
// edges are signals.  A Circuit is built incrementally (add_input/add_gate/
// mark_output) and then frozen; freezing validates the netlist and builds
// the CSR fanout index every downstream consumer (partitioners, simulators)
// iterates over.  After freeze() the structure is immutable, so it can be
// shared read-only across kernel threads without synchronization.

#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "circuit/types.hpp"

namespace pls::circuit {

class Circuit {
 public:
  Circuit() = default;
  explicit Circuit(std::string name) : name_(std::move(name)) {}

  // ----- construction (before freeze) -----

  /// Add a primary input. Names must be unique across all gates.
  GateId add_input(const std::string& name);

  /// Add a logic gate / flip-flop with named fanins added later via
  /// connect(), or immediately via the id-based overload.
  GateId add_gate(const std::string& name, GateType type,
                  std::vector<GateId> fanins = {});

  /// Append one more fanin to an existing gate.
  void connect(GateId gate, GateId fanin);

  /// Mark a gate's output signal as a primary output.
  void mark_output(GateId gate);
  void mark_output(const std::string& name);

  /// Validate the netlist and build fanout/index structures.  Throws
  /// util::CheckError on arity violations, dangling references or
  /// combinational cycles (cycles are legal only through DFFs).
  void freeze();

  /// A gate on a combinational cycle (one not broken by a flip-flop), or
  /// kInvalidGate if there is none.  Before freeze() only.
  GateId combinational_cycle_gate() const;

  // ----- queries (any time; fanout queries require freeze) -----

  const std::string& name() const noexcept { return name_; }
  bool frozen() const noexcept { return frozen_; }

  std::size_t size() const noexcept { return types_.size(); }

  GateType type(GateId g) const { return types_.at(g); }
  const std::string& gate_name(GateId g) const { return names_.at(g); }
  bool is_output(GateId g) const { return is_output_.at(g) != 0; }

  std::span<const GateId> fanins(GateId g) const {
    return {fanin_flat_.data() + fanin_off_.at(g),
            fanin_off_.at(g + 1) - fanin_off_.at(g)};
  }

  /// Gates driven by g's output signal (requires freeze()).
  std::span<const GateId> fanouts(GateId g) const;

  /// Lookup by name; returns kInvalidGate if absent.
  GateId find(const std::string& name) const;

  const std::vector<GateId>& primary_inputs() const noexcept { return inputs_; }
  const std::vector<GateId>& primary_outputs() const noexcept {
    return outputs_;
  }
  const std::vector<GateId>& flip_flops() const noexcept { return dffs_; }

  /// Combinational gates = size() - inputs - flip-flops.
  std::size_t num_combinational() const noexcept {
    return size() - inputs_.size() - dffs_.size();
  }

  /// Total number of directed edges (signal connections).
  std::size_t num_edges() const noexcept { return fanin_flat_.size(); }

 private:
  friend class CircuitBuilderAccess;  // test hook

  void check_unfrozen() const;
  void build_fanouts();
  void check_arities() const;

  std::string name_ = "circuit";
  bool frozen_ = false;

  // Gate storage: struct-of-arrays keyed by GateId.
  std::vector<GateType> types_;
  std::vector<std::string> names_;
  std::vector<std::uint8_t> is_output_;

  // Fanins: per-gate vectors during construction, flattened to CSR by
  // freeze() so hot loops see contiguous memory.
  std::vector<std::vector<GateId>> fanin_build_;
  std::vector<std::uint32_t> fanin_off_;
  std::vector<GateId> fanin_flat_;

  // Fanouts (CSR), built by freeze().
  std::vector<std::uint32_t> fanout_off_;
  std::vector<GateId> fanout_flat_;

  std::vector<GateId> inputs_;
  std::vector<GateId> outputs_;
  std::vector<GateId> dffs_;

  std::unordered_map<std::string, GateId> by_name_;
};

}  // namespace pls::circuit
