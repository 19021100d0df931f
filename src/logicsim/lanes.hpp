#pragma once
// Bit-parallel lane utilities: seeds, masks, per-lane state extraction
// and stuck-at fault bookkeeping for the word-wise logic engine.
//
// A run packs up to kMaxLanes independent stimulus scenarios into the bit
// lanes of each net's value words (see gate_eval.hpp eval_gate_word and
// the behaviours in netlist_lps.hpp).  Lane counts up to 64 fit one
// `uint64_t` per signal; wider runs carry K = lane_words(lanes) words per
// signal, with lane j living in bit j % 64 of word j / 64.  Word 0 stays
// in the inline Event/LpState slots, words 1..K-1 ride in the
// arena-pooled extensions (mem/words.hpp).
//
// The correctness contract is the *lane-equivalence* property this module
// makes checkable:
//
//   lane j of a run with base seed S is bit-identical to an independent
//   one-lane run with seed lane_seed(S, j), and lane_seed(S, 0) == S.
//
// extract_lane_states() projects a run's final LP states onto the one-lane
// state layout for one lane, so the existing state-vector compare closes
// the loop against a real one-lane run — on either backend, under
// rollback storms and coast-forward alike (the kernel never interprets
// the payload, so nothing lane-specific exists to get wrong there; the
// test exists to prove that).
//
// Stuck-at fault simulation (the classic bit-parallel application): lane 0
// is the fault-free reference and lanes 1..k each carry one StuckAtFault.
// Observing gates (primary outputs) accumulate, monotonically, the lanes
// whose output ever diverged from lane 0; detected_faults() reads those
// accumulators back out of the final states.  The accumulator lives in
// kernel-snapshotted LpState, so rollbacks cannot leak phantom detections.

#include <cstdint>
#include <vector>

#include "circuit/circuit.hpp"
#include "warped/types.hpp"

namespace pls::logicsim {

inline constexpr unsigned kMaxLanes = 256;
inline constexpr unsigned kMaxLaneWords = kMaxLanes / 64;

/// Number of 64-lane value words a lane count in [1, kMaxLanes] occupies.
constexpr std::uint32_t lane_words(unsigned lanes) noexcept {
  return (lanes + 63) / 64;
}

/// Active-lane mask of word `word` for a lane count in [1, kMaxLanes]:
/// full words below the boundary, a low-bit prefix in the boundary word,
/// zero above it.
constexpr std::uint64_t lane_mask_word(unsigned lanes, unsigned word) noexcept {
  if (lanes >= (word + 1) * 64) return ~std::uint64_t{0};
  if (lanes <= word * 64) return 0;
  return (std::uint64_t{1} << (lanes - word * 64)) - 1;
}

/// Active-lane mask of word 0 (the full mask for lane counts <= 64).
constexpr std::uint64_t lane_mask(unsigned lanes) noexcept {
  return lane_mask_word(lanes, 0);
}

/// Stimulus seed lane j of a run draws its vectors from.  Lane 0
/// reproduces the base seed exactly, so lane 0 of any run is the one-lane
/// run; other lanes decorrelate through an odd multiplicative constant
/// (every lane keeps a distinct seed for any base).
constexpr std::uint64_t lane_seed(std::uint64_t base, unsigned lane) noexcept {
  return base ^ (std::uint64_t{lane} * 0xd1b54a32d192ed03ULL);
}

/// One injected stuck-at fault: the named gate's output signal is forced
/// to `stuck_value` on the lane carrying this fault (lane = 1 + index in
/// ModelOptions::faults; lane 0 stays fault-free).
struct StuckAtFault {
  circuit::GateId gate = 0;
  bool stuck_value = false;

  friend bool operator==(const StuckAtFault&,
                         const StuckAtFault&) noexcept = default;
};

/// Deterministically pick `count` distinct single-stuck-at faults spread
/// over every gate of the circuit, primary inputs included: an input's
/// stuck-at word is applied like any other gate's (seeded; count is
/// clamped to kMaxLanes - 1 and to the gate count).
std::vector<StuckAtFault> sample_faults(const circuit::Circuit& c,
                                        std::size_t count,
                                        std::uint64_t seed);

/// Project the final LP states of a `lanes`-wide run onto the one-lane
/// state layout for one lane: the result compares equal (operator==) to
/// the final_states of an independent one-lane run of the same circuit
/// with seed lane_seed(base, lane).  `wide` must come from a model built
/// for this circuit with `lanes` stimulus lanes; at one lane the
/// projection is the identity.  Fault-detection accumulators are excluded
/// from the projection (they have no one-lane counterpart).
std::vector<warped::LpState> extract_lane_states(
    const circuit::Circuit& c, const std::vector<warped::LpState>& wide,
    unsigned lane, unsigned lanes);

/// Read the fault-detection verdict out of a finished fault-simulation
/// run of a `lanes`-wide model: element i is true iff faults[i] (carried
/// on lane i + 1) drove any primary output to a value different from
/// fault-free lane 0 at any committed point of the run.
std::vector<bool> detected_faults(const circuit::Circuit& c,
                                  const std::vector<StuckAtFault>& faults,
                                  const std::vector<warped::LpState>& finals,
                                  unsigned lanes);

}  // namespace pls::logicsim
