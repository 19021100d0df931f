#pragma once
// MultilevelHG: multilevel k-way partitioning of the circuit *hypergraph*,
// optimizing connectivity-1 (λ−1) directly.
//
// Same three-phase shape as the paper's graph algorithm (coarsen →
// initial → refine-per-level, projecting downward), but every phase runs
// on the hypergraph: heavy-pin coarsening keeps multi-fanout nets whole,
// and FM refinement scores moves by the exact number of inter-node
// messages a signal transition costs.  Registered in the framework
// registry as "MultilevelHG" so it is runtime-selectable next to the
// paper's six strategies.

#include <cstdint>
#include <vector>

#include "hypergraph/coarsen.hpp"
#include "hypergraph/refine.hpp"
#include "multilevel/vcycle.hpp"
#include "multilevel/weights.hpp"
#include "partition/partition.hpp"

namespace pls::hypergraph {

/// Coarsening stops at max(8k, 128) vertices: pairwise matching halves
/// levels at best, so the HG pipeline keeps a slightly larger coarsest
/// level than the graph pipeline's 4k.  Both pipelines share the balance
/// tolerance and the passes per level (multilevel::kBalanceTol,
/// multilevel::kRefinePasses).
struct MultilevelHGOptions {
  /// Optional activity-derived work/traffic weights, consumed exactly like
  /// MultilevelOptions::weights (net weight = driver's traffic weight);
  /// must outlive the run.
  const multilevel::VertexTrafficWeights* weights = nullptr;
};

/// Per-run diagnostics (same shape as the graph pipeline's; "quality" is
/// λ−1 here — see multilevel::Trace).
using MultilevelHGTrace = multilevel::Trace;

class MultilevelHGPartitioner final : public partition::Partitioner {
 public:
  MultilevelHGPartitioner() = default;
  explicit MultilevelHGPartitioner(MultilevelHGOptions opt) : opt_(opt) {}

  std::string name() const override { return "MultilevelHG"; }

  partition::Partition run(const circuit::Circuit& c, std::uint32_t k,
                           std::uint64_t seed) const override;

  partition::Partition run_traced(const circuit::Circuit& c, std::uint32_t k,
                                  std::uint64_t seed,
                                  MultilevelHGTrace* trace) const;

  const MultilevelHGOptions& options() const noexcept { return opt_; }

 private:
  MultilevelHGOptions opt_;
};

}  // namespace pls::hypergraph
