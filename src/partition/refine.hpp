#pragma once
// Refinement phase interfaces (paper §3).
//
// Refinement runs k-way at every level of the hierarchy, from coarsest to
// the original graph, minimizing the cut-set while preserving load
// balance.  The paper uses *greedy* refinement ([12]) and cites
// Kernighan–Lin [13] and Fiduccia–Mattheyses [6] as the slower, no-better
// alternatives it was measured against; all three are selectable here so
// that comparison is reproducible (bench_refinement_ablation).  Greedy
// and KL are graph refiners of their own.  FM is the hypergraph FM
// (hypergraph/refine.hpp) run on the level graph's 2-pin view, where a
// net's λ−1 is its edge's cut, so one FM serves both multilevel pipelines.

#include <cstdint>
#include <memory>
#include <string>

#include "graph/weighted_graph.hpp"
#include "partition/partition.hpp"

namespace pls::partition {

struct RefineOptions {
  /// A move is feasible only if the destination stays at or below
  /// ceil(W/k)·(1+balance_tol).
  double balance_tol = 0.10;
  /// Maximum refinement iterations (each visits every vertex once); the
  /// greedy algorithm "was found to converge in a few iterations".
  std::uint32_t max_iters = 8;
  std::uint64_t seed = 1;
};

struct RefineResult {
  std::uint64_t moves = 0;        ///< vertices relocated
  std::uint64_t iterations = 0;   ///< passes actually executed
  std::uint64_t cut_before = 0;
  std::uint64_t cut_after = 0;
};

class Refiner {
 public:
  virtual ~Refiner() = default;
  virtual std::string name() const = 0;
  /// Refine `p` in place on `g`.  Implementations must never increase the
  /// cut and must respect the balance limit for every move they commit.
  virtual RefineResult refine(const graph::WeightedGraph& g, Partition& p,
                              const RefineOptions& opt) const = 0;
};

/// Greedy k-way refinement — the multilevel algorithm's default.
class GreedyRefiner final : public Refiner {
 public:
  std::string name() const override { return "Greedy"; }
  RefineResult refine(const graph::WeightedGraph& g, Partition& p,
                      const RefineOptions& opt) const override;
};

/// Pairwise Kernighan–Lin swap refinement (baseline [13]).
class KernighanLinRefiner final : public Refiner {
 public:
  std::string name() const override { return "KL"; }
  RefineResult refine(const graph::WeightedGraph& g, Partition& p,
                      const RefineOptions& opt) const override;
};

/// k-way Fiduccia–Mattheyses single-move refinement with best-prefix
/// rollback (baseline [6]): hypergraph::refine_fm on g's 2-pin view.
/// `seed` is unused (that FM is deterministic).
class FiducciaMattheysesRefiner final : public Refiner {
 public:
  std::string name() const override { return "FM"; }
  RefineResult refine(const graph::WeightedGraph& g, Partition& p,
                      const RefineOptions& opt) const override;
};

enum class RefinerKind { kGreedy, kKernighanLin, kFiducciaMattheyses };

std::unique_ptr<Refiner> make_refiner(RefinerKind kind);

}  // namespace pls::partition
