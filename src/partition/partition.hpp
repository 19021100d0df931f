#pragma once
// Partition: an assignment of circuit gates (Time Warp LPs) to k nodes.
//
// Every partitioner in the study produces one of these; the framework layer
// then instantiates one WARPED-style cluster per part (paper §4).

#include <cstdint>
#include <string>
#include <vector>

#include "circuit/circuit.hpp"

namespace pls::partition {

using PartId = std::uint32_t;

struct Partition {
  std::uint32_t k = 1;              ///< number of parts (nodes)
  std::vector<PartId> assign;       ///< gate id -> part id

  PartId operator[](circuit::GateId g) const { return assign.at(g); }

  /// Per-part total vertex weight; unit weights if `weights` is empty.
  std::vector<std::uint64_t> loads(
      const std::vector<std::uint32_t>& weights = {}) const;

  /// Throws util::CheckError unless every gate has a part in [0,k) and k>=1.
  void validate(std::size_t num_gates) const;
};

/// Abstract partitioning strategy (paper §4: strategies are selected at
/// runtime by name, without recompiling the simulator).
class Partitioner {
 public:
  virtual ~Partitioner() = default;

  /// Strategy name as it appears in the paper's tables
  /// ("Random", "DFS", "Cluster", "Topological", "Multilevel", "Cone").
  virtual std::string name() const = 0;

  /// Partition circuit `c` into `k` parts.  `seed` feeds any randomized
  /// choices; equal seeds give equal partitions.
  virtual Partition run(const circuit::Circuit& c, std::uint32_t k,
                        std::uint64_t seed) const = 0;
};

}  // namespace pls::partition
