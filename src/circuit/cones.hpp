#pragma once
// Fanout cone analysis.
//
// The Cone partitioner of the study ("a partitioning scheme based on
// fanout/fanin cone clustering starting from the input gates", Smith [19])
// clusters each primary input's forward-reachable set.

#include <vector>

#include "circuit/circuit.hpp"

namespace pls::circuit {

/// All gates reachable from `root` by following fanout edges (including
/// `root` itself).  `through_dff` controls whether traversal continues
/// through flip-flop boundaries (the Cone partitioner does not, matching
/// its combinational-cone definition).
std::vector<GateId> fanout_cone(const Circuit& c, GateId root,
                                bool through_dff = false);

}  // namespace pls::circuit
