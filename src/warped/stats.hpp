#pragma once
// Run statistics: exactly the quantities the paper's evaluation reports —
// execution time (Table 2, Figure 4), application messages (Figure 5) and
// rollbacks (Figure 6) — plus the supporting Time Warp internals.

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "warped/throttle.hpp"
#include "warped/types.hpp"

namespace pls::warped {

struct NodeStats {
  std::uint64_t events_processed = 0;   ///< executions incl. repeated ones
  std::uint64_t events_committed = 0;   ///< committed below GVT (+ finalize)
  std::uint64_t events_rolled_back = 0;

  std::uint64_t primary_rollbacks = 0;    ///< straggler-induced
  std::uint64_t secondary_rollbacks = 0;  ///< anti-message-induced
  std::uint64_t total_rollbacks() const noexcept {
    return primary_rollbacks + secondary_rollbacks;
  }

  std::uint64_t inter_node_messages = 0;  ///< positive msgs to other nodes
  std::uint64_t intra_node_events = 0;    ///< direct local deliveries
  std::uint64_t anti_messages_sent = 0;

  // Coalescing comm fabric (channel.hpp): flushed batch counts.
  // batch_msgs_sent / batches_sent is the realized coalescing factor;
  // 1.0 means batching bought nothing (or was disabled).
  std::uint64_t batches_sent = 0;     ///< coalesced batches flushed
  std::uint64_t batch_msgs_sent = 0;  ///< messages inside those batches
  std::uint64_t max_batch_msgs = 0;   ///< largest single batch

  std::uint64_t idle_polls = 0;   ///< main-loop spins with nothing to do
  std::uint64_t idle_sleeps = 0;  ///< idle-backoff naps (core released)
  std::size_t peak_live_entries = 0;  ///< memory high-water mark

  std::uint64_t exec_polls = 0;   ///< main-loop polls that executed >= 1 batch
  std::uint64_t throttle_shrinks = 0;  ///< adaptive window contractions
  std::uint64_t throttle_grows = 0;    ///< adaptive window expansions

  // Arena-pool accounting (mem/pool.hpp), snapshotted at run end.
  std::uint64_t pool_slab_bytes = 0;      ///< slab memory reserved
  std::uint64_t pool_blocks_recycled = 0; ///< free-list hits (carve avoided)
  std::uint64_t pool_heap_fallbacks = 0;  ///< allocations the pool declined

  void merge(const NodeStats& o) noexcept;
};

/// Per-LP attribution, so a stall or a rollback storm can be pinned to the
/// responsible process instead of showing up only as node-level noise.
/// The three committed counters are what logicsim::check_equivalence
/// compares with the sequential reference LP by LP; the benches sum
/// sends_committed into committed lane transitions, and the pipeline
/// benchmark sums lane_work_committed into its lane work.
struct LpStats {
  std::uint64_t events_processed = 0;
  std::uint64_t events_rolled_back = 0;
  std::uint64_t events_committed = 0;    ///< committed useful work (fossil
                                         ///< cut + finalize)
  std::uint64_t sends_committed = 0;     ///< lane transitions sent and
                                         ///< never cancelled (popcount of
                                         ///< each non-self send's mask)
  std::uint64_t lane_work_committed = 0; ///< committed incoming lane
                                         ///< transitions (input-mask
                                         ///< popcounts); == events_committed
                                         ///< in single-lane runs
  std::uint64_t rollbacks = 0;           ///< primary + secondary
  std::uint64_t max_rollback_depth = 0;  ///< most events undone at once
};

/// Per-node optimism-throttle outcome: the controller's summary counters
/// plus the recorded window trajectory (capped; see ThrottleConfig).
struct ThrottleTrace {
  ThrottleSummary summary;
  std::vector<ThrottleDecision> decisions;
};

struct RunStats {
  std::uint32_t num_nodes = 1;
  double wall_seconds = 0.0;        ///< the paper's "Simulation Time"
  SimTime final_gvt = 0;
  std::uint64_t gvt_cycles = 0;     ///< completed asynchronous GVT rounds
  bool out_of_memory = false;       ///< aborted by the live-event limit
  bool stalled = false;             ///< aborted by the deadlock watchdog

  NodeStats totals;                 ///< aggregated over nodes
  std::vector<NodeStats> per_node;
  std::vector<LpStats> per_lp;      ///< indexed by LpId
  std::vector<ThrottleTrace> throttle;  ///< indexed by node

  /// Final committed state of every LP, for sequential-equivalence checks.
  std::vector<LpState> final_states;
};

std::ostream& operator<<(std::ostream& os, const RunStats& s);

}  // namespace pls::warped
