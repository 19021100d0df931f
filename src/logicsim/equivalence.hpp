#pragma once
// Parallel ≡ sequential equivalence checking.
//
// Time Warp's correctness contract: the committed results of an optimistic
// run must be exactly those of a sequential execution of the same model.
// The integration and property tests enforce this for every partitioner and
// node count on real circuits, which exercises the entire rollback /
// cancellation / GVT machinery end to end.  Besides final states and the
// total event count, every LP's committed counters (events, lane work,
// sends) must equal the sequential run's: they feed the activity-guided
// partitioner, so a rollback that miscounts them would skew its weights.

#include <cstdint>
#include <string>
#include <vector>

#include "circuit/circuit.hpp"
#include "logicsim/lanes.hpp"
#include "logicsim/sequential.hpp"
#include "warped/stats.hpp"

namespace pls::logicsim {

struct EquivalenceReport {
  bool states_equal = false;
  bool counts_equal = false;
  std::size_t first_mismatch_lp = 0;   ///< valid when !states_equal
  std::uint64_t parallel_committed = 0;
  std::uint64_t sequential_processed = 0;
  /// The first per-LP committed counter that differs, in LP order, as
  /// "LP <i>: <counter> <parallel> != sequential <sequential>"; empty
  /// when every LP matches.
  std::string counter_mismatch;

  bool ok() const noexcept {
    return states_equal && counts_equal && counter_mismatch.empty();
  }
  std::string describe() const;
};

EquivalenceReport check_equivalence(const warped::RunStats& parallel,
                                    const SeqStats& sequential);

/// Lane-equivalence (the lane contract, lanes.hpp): lane `lane` of a
/// `lanes`-wide run's final states, projected onto the one-lane layout,
/// must equal the final states of an independent one-lane run — one whose
/// seed is lane_seed(base, lane).  Any lane count works; at one lane the
/// projection is the identity.  Event counts are *not* compared (a wide
/// run coalesces up to kMaxLanes one-lane events into one); counts_equal
/// is reported true so ok() reduces to the per-lane state check.
EquivalenceReport check_lane_equivalence(
    const circuit::Circuit& c,
    const std::vector<warped::LpState>& batched_finals, unsigned lane,
    unsigned lanes, const std::vector<warped::LpState>& scalar_finals);

}  // namespace pls::logicsim
