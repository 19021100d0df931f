#include "circuit/circuit.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace pls::circuit {

void Circuit::check_unfrozen() const {
  PLS_CHECK_MSG(!frozen_, "circuit '" << name_ << "' is frozen");
}

GateId Circuit::add_input(const std::string& name) {
  return add_gate(name, GateType::kInput);
}

GateId Circuit::add_gate(const std::string& name, GateType type,
                         std::vector<GateId> fanins) {
  check_unfrozen();
  PLS_CHECK_MSG(!by_name_.count(name), "duplicate gate name '" << name << "'");
  for (GateId f : fanins) {
    PLS_CHECK_MSG(f < types_.size(),
                  "fanin id " << f << " of '" << name << "' out of range");
  }
  const auto id = static_cast<GateId>(types_.size());
  types_.push_back(type);
  names_.push_back(name);
  is_output_.push_back(0);
  fanin_build_.push_back(std::move(fanins));
  by_name_.emplace(name, id);
  if (type == GateType::kInput) inputs_.push_back(id);
  if (type == GateType::kDff) dffs_.push_back(id);
  return id;
}

void Circuit::connect(GateId gate, GateId fanin) {
  check_unfrozen();
  PLS_CHECK(gate < types_.size());
  PLS_CHECK(fanin < types_.size());
  PLS_CHECK_MSG(types_[gate] != GateType::kInput,
                "primary input '" << names_[gate] << "' cannot have fanin");
  fanin_build_[gate].push_back(fanin);
}

void Circuit::mark_output(GateId gate) {
  PLS_CHECK(gate < types_.size());
  if (!is_output_[gate]) {
    is_output_[gate] = 1;
    outputs_.push_back(gate);
  }
}

void Circuit::mark_output(const std::string& name) {
  const GateId g = find(name);
  PLS_CHECK_MSG(g != kInvalidGate, "mark_output: unknown gate '" << name
                                                                 << "'");
  mark_output(g);
}

GateId Circuit::find(const std::string& name) const {
  auto it = by_name_.find(name);
  return it == by_name_.end() ? kInvalidGate : it->second;
}

std::span<const GateId> Circuit::fanouts(GateId g) const {
  PLS_CHECK_MSG(frozen_, "fanouts() requires freeze()");
  return {fanout_flat_.data() + fanout_off_.at(g),
          fanout_off_.at(g + 1) - fanout_off_.at(g)};
}

void Circuit::check_arities() const {
  for (GateId g = 0; g < types_.size(); ++g) {
    const auto n = static_cast<int>(fanin_build_[g].size());
    PLS_CHECK_MSG(n >= min_arity(types_[g]) && n <= max_arity(types_[g]),
                  "gate '" << names_[g] << "' (" << to_string(types_[g])
                           << ") has illegal fanin count " << n);
  }
}

GateId Circuit::combinational_cycle_gate() const {
  check_unfrozen();
  // Iterative three-color DFS over combinational edges only.  Edges into a
  // DFF's D pin terminate a combinational path (the DFF output is a new
  // sequential source), so cycles through flip-flops are legal — they are
  // exactly the sequential feedback loops of ISCAS'89 circuits.
  enum : std::uint8_t { kWhite, kGray, kBlack };
  std::vector<std::uint8_t> color(types_.size(), kWhite);
  std::vector<std::pair<GateId, std::size_t>> stack;

  for (GateId root = 0; root < types_.size(); ++root) {
    if (color[root] != kWhite || types_[root] == GateType::kDff) continue;
    stack.emplace_back(root, 0);
    color[root] = kGray;
    while (!stack.empty()) {
      auto& [g, idx] = stack.back();
      const auto& fin = fanin_build_[g];
      if (idx == fin.size()) {
        color[g] = kBlack;
        stack.pop_back();
        continue;
      }
      const GateId next = fin[idx++];
      if (types_[next] == GateType::kDff) continue;  // sequential boundary
      if (color[next] == kGray) return next;
      if (color[next] == kWhite) {
        color[next] = kGray;
        stack.emplace_back(next, 0);
      }
    }
  }
  return kInvalidGate;
}

void Circuit::build_fanouts() {
  // Flatten fanins to CSR.
  fanin_off_.assign(types_.size() + 1, 0);
  std::size_t total = 0;
  for (GateId g = 0; g < types_.size(); ++g) {
    fanin_off_[g] = static_cast<std::uint32_t>(total);
    total += fanin_build_[g].size();
  }
  fanin_off_[types_.size()] = static_cast<std::uint32_t>(total);
  fanin_flat_.clear();
  fanin_flat_.reserve(total);
  for (const auto& v : fanin_build_) {
    fanin_flat_.insert(fanin_flat_.end(), v.begin(), v.end());
  }

  // Counting sort into fanout CSR.
  fanout_off_.assign(types_.size() + 1, 0);
  for (GateId f : fanin_flat_) ++fanout_off_[f + 1];
  for (std::size_t i = 1; i < fanout_off_.size(); ++i) {
    fanout_off_[i] += fanout_off_[i - 1];
  }
  fanout_flat_.assign(total, kInvalidGate);
  std::vector<std::uint32_t> cursor(fanout_off_.begin(),
                                    fanout_off_.end() - 1);
  for (GateId g = 0; g < types_.size(); ++g) {
    for (GateId f : fanin_build_[g]) {
      fanout_flat_[cursor[f]++] = g;
    }
  }
}

void Circuit::freeze() {
  check_unfrozen();
  PLS_CHECK_MSG(!types_.empty(), "empty circuit");
  check_arities();
  if (const GateId g = combinational_cycle_gate(); g != kInvalidGate) {
    ::pls::util::check_failed(
        "combinational cycle", __FILE__, __LINE__,
        "cycle through gate '" + names_[g] + "' not broken by a flip-flop");
  }
  build_fanouts();
  fanin_build_.clear();
  fanin_build_.shrink_to_fit();
  frozen_ = true;
}

}  // namespace pls::circuit
