#include "framework/registry.hpp"

#include "hypergraph/multilevel_hg_partitioner.hpp"
#include "partition/baselines.hpp"
#include "util/check.hpp"

namespace pls::framework {

const std::vector<std::string>& partitioner_names() {
  static const std::vector<std::string> kNames = {
      "Random", "DFS", "Cluster", "Topological", "Multilevel",
      "ConePartition", "MultilevelHG"};
  return kNames;
}

bool strategy_consumes_weights(const std::string& name) {
  return name == "Multilevel" || name == "MultilevelHG";
}

std::unique_ptr<partition::Partitioner> make_partitioner(
    const std::string& name, const partition::MultilevelOptions& ml) {
  using namespace partition;
  if (name == "Random") return std::make_unique<RandomPartitioner>();
  if (name == "DFS") return std::make_unique<DepthFirstPartitioner>();
  if (name == "Cluster") return std::make_unique<BfsClusterPartitioner>();
  if (name == "Topological") return std::make_unique<TopologicalPartitioner>();
  if (name == "Multilevel") return std::make_unique<MultilevelPartitioner>(ml);
  if (name == "ConePartition" || name == "Cone") {
    return std::make_unique<FanoutConePartitioner>();
  }
  if (name == "MultilevelHG") {
    // Shares the activity weighting, so a head-to-head comparison runs
    // both pipelines on the same weights (and, by construction, at the
    // same imbalance tolerance).
    hypergraph::MultilevelHGOptions hgo;
    hgo.weights = ml.weights;
    return std::make_unique<hypergraph::MultilevelHGPartitioner>(hgo);
  }
  PLS_CHECK_MSG(false, "unknown partitioner '" << name << "'");
  return nullptr;
}

}  // namespace pls::framework
