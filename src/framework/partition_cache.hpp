#pragma once
// On-disk partition cache: multilevel partitioning dominates setup time on
// large circuits (ROADMAP: seconds against a sub-second simulation), yet
// sweeps re-partition the identical circuit with identical settings run
// after run.  The cache keys a computed assignment on everything the
// partitioner's output is a deterministic function of — the circuit's
// structural hash, the node count, the strategy, its seed, the multilevel
// options, and (for activity-guided runs) the exact vertex/traffic weight
// vectors — and replays it from a flat file when the key matches.
//
// Format: one small text file per key, `<hex key>.part` under the cache
// directory, holding a header (magic, key, k, n) and the assignment.  The
// load path re-validates k and n against the request and the assignment
// against the node count, so a stale or truncated file degrades to a miss
// (and is overwritten by the fresh store), never to a bad partition.
//
// Enabled via DriverConfig::partition_cache_dir (`--partition-cache <dir>`
// in the examples).

#include <cstdint>
#include <string>

#include "circuit/circuit.hpp"
#include "multilevel/weights.hpp"
#include "partition/multilevel_partitioner.hpp"
#include "partition/partition.hpp"

namespace pls::framework {

/// Structural circuit hash: gate types, fanin topology and output marks.
/// Names are excluded — two identically wired circuits partition the same.
std::uint64_t circuit_structure_hash(const circuit::Circuit& c);

/// Cache key over every input the computed assignment depends on.
/// `weights` may be null (unweighted strategies).
std::uint64_t partition_cache_key(const circuit::Circuit& c, std::uint32_t k,
                                  const std::string& strategy,
                                  std::uint64_t seed,
                                  const partition::MultilevelOptions& opts,
                                  const multilevel::VertexTrafficWeights*
                                      weights);

/// Load the cached assignment for `key` into `out`.  Returns false on any
/// mismatch (absent file, wrong magic/key/k/n, out-of-range node) — a miss,
/// never an error.
bool partition_cache_load(const std::string& dir, std::uint64_t key,
                          std::uint32_t k, std::size_t n,
                          partition::Partition* out);

/// Persist `p` under `key`, creating `dir` if needed.  Best-effort: IO
/// failure is swallowed (the run already has its partition; the cache is
/// an accelerator, not a dependency).
void partition_cache_store(const std::string& dir, std::uint64_t key,
                           const partition::Partition& p);

}  // namespace pls::framework
