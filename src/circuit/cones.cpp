#include "circuit/cones.hpp"

#include "util/check.hpp"

namespace pls::circuit {

std::vector<GateId> fanout_cone(const Circuit& c, GateId root,
                                bool through_dff) {
  PLS_CHECK(c.frozen());
  PLS_CHECK(root < c.size());
  std::vector<std::uint8_t> seen(c.size(), 0);
  std::vector<GateId> stack{root};
  std::vector<GateId> out;
  seen[root] = 1;
  while (!stack.empty()) {
    const GateId g = stack.back();
    stack.pop_back();
    out.push_back(g);
    // Stop expanding past a DFF unless through_dff is set (the root itself
    // always expands so a DFF root has a non-trivial cone).
    if (!through_dff && g != root && c.type(g) == GateType::kDff) continue;
    for (GateId n : c.fanouts(g)) {
      if (!seen[n]) {
        seen[n] = 1;
        stack.push_back(n);
      }
    }
  }
  return out;
}

}  // namespace pls::circuit
