#pragma once
// Shared partition-quality arithmetic.
//
// partition::imbalance (circuit and graph overloads) and
// hypergraph::imbalance are the same function of (per-part loads, total
// weight, k); the single definition lives here so "imbalance" means one
// thing across the study (property-tested in multilevel_core_test).

#include <cstdint>
#include <span>
#include <vector>

namespace pls::partition {
struct Partition;
}

namespace pls::multilevel {

/// Max part load / ideal load (1.0 = perfect).  Returns 1.0 for an empty
/// instance (total == 0), matching both historical implementations.
double imbalance_from_loads(std::span<const std::uint64_t> loads,
                            std::uint64_t total_weight, std::uint32_t k);

/// Imbalance of a partition measured in *work weights* (vertex weights of
/// a VertexTrafficWeights): the load a node actually carries at runtime.
/// An empty weight vector means unit weights, where this equals the plain
/// gate-count imbalance.  The driver reports it for activity-guided
/// partitions (DriverResult::weighted_imbalance).
double weighted_imbalance(const partition::Partition& p,
                          const std::vector<std::uint32_t>& vertex_weights);

}  // namespace pls::multilevel
