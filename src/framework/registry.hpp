#pragma once
// Runtime partitioner registry (paper §4): "The runtime partitioning
// technique provides the flexibility to choose from different partitioning
// algorithms without necessitating re-compilation of the system."
//
// Strategies are keyed by the names the paper's tables use: "Random",
// "DFS", "Cluster", "Topological", "Multilevel", "ConePartition" — plus
// "MultilevelHG", the native hypergraph partitioner (src/hypergraph/)
// that optimizes the λ−1 communication volume directly.

#include <memory>
#include <string>
#include <vector>

#include "partition/multilevel_partitioner.hpp"
#include "partition/partition.hpp"

namespace pls::framework {

/// All registered strategy names, in the paper's presentation order.
const std::vector<std::string>& partitioner_names();

/// True when `name` consumes multilevel activity weights (the multilevel
/// pair).  DriverConfig::use_activity requires such a strategy, and bench
/// activity sweeps list only these in their non-"off" column groups.
bool strategy_consumes_weights(const std::string& name);

/// Instantiate a strategy by name; `ml` customizes the multilevel
/// algorithm (ignored for the baselines).  Throws util::CheckError for
/// unknown names.
std::unique_ptr<partition::Partitioner> make_partitioner(
    const std::string& name, const partition::MultilevelOptions& ml = {});

}  // namespace pls::framework
