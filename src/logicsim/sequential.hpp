#pragma once
// Sequential reference simulator.
//
// The paper's "Seq Time" column comes from a plain sequential simulation of
// the same model: no state saving, no rollbacks, no communication.  Its
// final states and event counts are the ground truth the optimistic runs
// are checked against (logicsim/equivalence.hpp), so it is written apart
// from the behaviours it verifies: it never calls LogicalProcess::init or
// execute.  It steps the FlatModel the behaviours read (netlist_lps.hpp)
// with a flat unit-delay engine of its own:
//
//  * compile: every LP must be the NetlistLp of one FlatModel at its own
//    index, and the LPs must cover that model (a check failure names the
//    first LP that is not).  Each LP's record fills one cache-line node,
//    and one word array holds every LP's state in its documented LpState
//    layout, sized by the record and starting at zero.  Every gate,
//    flip-flop and input has delay 1.
//  * data: every output change lands exactly one tick later, so a tick's
//    sends fill a next-tick buffer of 16-byte records (target, port,
//    payload offset, lane count), and the sender writes its K value words
//    and K change masks once into that tick's payload array.
//  * ticks: self-ticks (power-on, clock edges, stimulus vectors) go to a
//    32-slot wheel, slot t % 32 holding the LPs due at tick t, with a
//    min-heap for ticks 32 or more ahead; a stretch with nothing pending is
//    skipped in one step.  A duplicate tick is still its own event.
//  * batches: at each tick every tick and data record lands first (masked
//    application into the fanin, D or armed words), then each LP that got
//    anything runs once, in first-touch order, with no sort: each port has
//    one driver and every send is due strictly later, so the order of LPs
//    within a tick and of events within a batch cannot change a result.
//    `event_cost_ns` is charged once per such batch.
//
// It shares with the behaviours only the elaboration (the FlatModel's
// records, ports, stuck-at words and timing) and the pure helpers
// eval_gate, eval_gate_word and vector_word, so a fault in a NetlistLp
// execute path makes the Time Warp kernel disagree with it.  It allocates
// no pooled memory: the exported final states draw their wide words from
// the caller's pool, if any.

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
  /// Lane transitions sent to other LPs (≈ output transitions × fanout
  /// degree) — the *traffic* profile source: a gate that evaluates often
  /// but rarely toggles receives many events yet sends few, and only sends
  /// cross node boundaries.  Sends to the LP itself (clock and stimulus
  /// ticks, a flip-flop whose D is its own Q) are excluded; they never
  /// leave the LP.
  std::vector<std::uint64_t> per_lp_sends;
};

/// Run the netlist model `lps` (SimModel::behaviours()) to `end_time`.
/// `event_cost_ns` charges the same per-batch CPU cost the parallel kernel
/// charges, so sequential-vs-parallel wall times are an apples-to-apples
/// speedup comparison.
SeqStats simulate_sequential(const std::vector<warped::LogicalProcess*>& lps,
                             warped::SimTime end_time,
                             std::uint64_t event_cost_ns = 0);

}  // namespace pls::logicsim
