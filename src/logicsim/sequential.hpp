#pragma once
// Sequential reference simulator.
//
// The paper's "Seq Time" column comes from a plain sequential simulation of
// the same model: one time-ordered event calendar, no state saving, no
// rollbacks, no communication.  This engine executes the *same*
// LogicalProcess behaviours as the Time Warp kernel with identical batch
// semantics, so its final states and event counts are the ground truth the
// optimistic runs are checked against (logicsim/equivalence.hpp).
//
// Its cost is proportional to the events it executes:
//  * pending events sit in a ring of 32 slot vectors, slot t % 32 holding
//    the events due at tick t for the next 32 ticks; an event due 32 or
//    more ticks ahead waits in a receive-time min-heap and moves into the
//    ring when the window reaches its tick, and a stretch with no event
//    at all is skipped in one step;
//  * each tick sorts its slot by (target, Event::operator<) and executes
//    every target's run of events as one batch, a view into the slot, in
//    ascending LP id.  operator< is a total order (ids are unique per
//    sender), so a batch holds exactly the events, in exactly the order,
//    that the kernel's sorted per-LP queue would; and since every send
//    made while executing is due strictly later, batches at one tick are
//    independent and a send never lands in the slot being executed;
//  * init sends may be due at time 0; tick 0 runs them after every init;
//  * wide event payloads and state words (lanes > 64) come from a
//    mem::Pool owned by the call.  The calendar lives inside the pool's
//    scope, so every event it frees returns there; the final states are
//    copied out through the caller's allocator before the pool is
//    destroyed.

#include <cstdint>
#include <vector>

#include "warped/lp.hpp"
#include "warped/types.hpp"

namespace pls::logicsim {

struct SeqStats {
  std::uint64_t events_processed = 0;  ///< every event is committed
  double wall_seconds = 0.0;
  std::vector<warped::LpState> final_states;
  std::vector<std::uint64_t> per_lp_events;  ///< events received
  /// Lane transitions received per LP: popcount over the change masks of
  /// every event executed there (ticks weigh their scalar mask = 1).
  /// This is the lane-aware *work* profile source — a batched event that
  /// toggles 40 lanes is 40 lane-evaluations of downstream work, not one.
  /// Equals per_lp_events on scalar (lanes = 1) runs, where every mask
  /// has exactly one bit.
  std::vector<std::uint64_t> per_lp_lane_work;
  /// Non-self ctx.send() lane transitions per LP (≈ output transitions ×
  /// fanout degree) — the *traffic* profile source: a gate that evaluates
  /// often but rarely toggles receives many events yet sends few, and
  /// only sends cross node boundaries.  Self-sends (clock/stimulus
  /// ticks) are excluded; they never leave the LP.
  std::vector<std::uint64_t> per_lp_sends;
};

/// Run the model to `end_time`.  `event_cost_ns` charges the same per-batch
/// CPU cost the parallel kernel charges, so sequential-vs-parallel wall
/// times are an apples-to-apples speedup comparison.
SeqStats simulate_sequential(const std::vector<warped::LogicalProcess*>& lps,
                             warped::SimTime end_time,
                             std::uint64_t event_cost_ns = 0);

}  // namespace pls::logicsim
