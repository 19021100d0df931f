#pragma once
// The multilevel partitioning algorithm — the paper's contribution (§3).
//
// Three decoupled phases, each optimizing one concern:
//   1. Coarsening     — concurrency   (fanout coarsening from the inputs)
//   2. Initial k-way  — load balance  (input globules spread equally)
//   3. Refinement     — communication (greedy k-way cut reduction at every
//                                      level, projecting downward)
//
// Complexity is O(|E|) per level and O(|E|) overall (the level sizes form a
// geometric series), making it "a fast linear time heuristic" — verified
// empirically by bench_complexity.

#include <vector>

#include "multilevel/vcycle.hpp"
#include "multilevel/weights.hpp"
#include "partition/coarsen.hpp"
#include "partition/partition.hpp"
#include "partition/refine.hpp"

namespace pls::partition {

struct MultilevelOptions {
  CoarsenScheme scheme = CoarsenScheme::kFanout;
  RefinerKind refiner = RefinerKind::kGreedy;
  /// Tight: the baselines balance to within one gate, and any slack here
  /// shows up directly as one lagging node at runtime.  MultilevelHG reads
  /// the same value, so head-to-head comparisons run at equal imbalance
  /// tolerance.
  static constexpr double balance_tol = 0.03;
  /// Refinement passes per level.
  static constexpr std::uint32_t refine_iters = 8;
  /// Optional activity-derived work/traffic weights (see
  /// CoarsenOptions::weights); must outlive the run.
  const multilevel::VertexTrafficWeights* weights = nullptr;
};

/// Per-run diagnostics for benchmarking and tests; "quality" is the
/// weighted edge cut here (see multilevel::Trace).
using MultilevelTrace = multilevel::Trace;

class MultilevelPartitioner final : public Partitioner {
 public:
  MultilevelPartitioner() = default;
  explicit MultilevelPartitioner(MultilevelOptions opt) : opt_(opt) {}

  std::string name() const override { return "Multilevel"; }

  Partition run(const circuit::Circuit& c, std::uint32_t k,
                std::uint64_t seed) const override;

  /// Like run(), optionally filling a trace of the per-level progress.
  Partition run_traced(const circuit::Circuit& c, std::uint32_t k,
                       std::uint64_t seed, MultilevelTrace* trace) const;

  const MultilevelOptions& options() const noexcept { return opt_; }

 private:
  MultilevelOptions opt_;
};

}  // namespace pls::partition
