#include "logicsim/lanes.hpp"

#include <algorithm>

#include "util/check.hpp"
#include "util/rng.hpp"

namespace pls::logicsim {

using warped::LpState;

std::vector<StuckAtFault> sample_faults(const circuit::Circuit& c,
                                        std::size_t count,
                                        std::uint64_t seed) {
  PLS_CHECK_MSG(c.size() > 0, "cannot sample faults from an empty circuit");
  count = std::min<std::size_t>({count, kMaxLanes - 1, c.size()});
  std::vector<StuckAtFault> out;
  out.reserve(count);
  std::vector<std::uint8_t> used(c.size(), 0);
  util::SplitMix64 h(seed);
  while (out.size() < count) {
    const auto g = static_cast<circuit::GateId>(h.next() % c.size());
    if (used[g]) continue;  // distinct sites: each lane probes new logic
    used[g] = 1;
    out.push_back(StuckAtFault{g, (h.next() & 1) != 0});
  }
  return out;
}

// The state layouts (NetlistLp, netlist_lps.hpp), K = lane_words(lanes):
//   gate       w[wd*arity + p] = fanin p, word wd;  b = out word 0,
//              w[arity*K + wd-1] = out words 1..K-1;  a = divergence
//              word 0, w[arity*K + K-1 + wd-1] = words 1..K-1 (observe).
//   flip-flop  a/b = D/Q word 0; w[0..K) = armed; w[K + wd-1] = D words
//              1..K-1; w[2K-1 + wd-1] = Q words 1..K-1;
//              w[3K-2 + wd] = divergence words 0..K-1 (observe).
//   input      b = stimulus word 0; w[wd-1] = words 1..K-1; a =
//              divergence word 0, w[K-1 + wd-1] = words 1..K-1 (observe).
// K = 1 collapses every extension to the single-word layout, and one lane
// also drops the gate's fanin words (packed into a) and the DFF's armed
// word: one-lane states are the projected layout itself.

namespace {

inline bool state_bit(std::uint64_t word0, const mem::Words& w,
                      std::size_t ext_base, unsigned wd, unsigned bit) {
  const std::uint64_t word = wd == 0 ? word0 : w[ext_base + wd - 1];
  return ((word >> bit) & 1) != 0;
}

}  // namespace

std::vector<LpState> extract_lane_states(const circuit::Circuit& c,
                                         const std::vector<LpState>& wide,
                                         unsigned lane, unsigned lanes) {
  PLS_CHECK_MSG(wide.size() == c.size(),
                "final-state vector does not match the circuit");
  PLS_CHECK_MSG(lanes >= 1 && lanes <= kMaxLanes, "lane count out of range");
  PLS_CHECK_MSG(lane < lanes, "lane out of range");
  if (lanes == 1) return wide;
  const unsigned K = lane_words(lanes);
  const unsigned wd = lane / 64;
  const unsigned bit = lane % 64;
  std::vector<LpState> out(wide.size());
  for (circuit::GateId g = 0; g < c.size(); ++g) {
    const LpState& w = wide[g];
    LpState& s = out[g];
    switch (c.type(g)) {
      case circuit::GateType::kInput:
        // One lane: b bit 0 = current stimulus value, a unused.
        s.b = state_bit(w.b, w.w, 0, wd, bit) ? 1 : 0;
        break;
      case circuit::GateType::kDff:
        // One lane: a = latched D, b = Q.
        s.a = state_bit(w.a, w.w, K, wd, bit) ? 1 : 0;
        s.b = state_bit(w.b, w.w, 2 * K - 1, wd, bit) ? 1 : 0;
        break;
      default: {
        // One lane packs fanin bits into a (bit p = input p); wider runs
        // keep one lane word per (fanin, word), word-major.
        const auto arity = c.fanins(g).size();
        PLS_CHECK_MSG(w.w.size() >= arity * K,
                      "gate " << g << " state does not hold " << lanes
                              << " lanes");
        for (std::size_t p = 0; p < arity; ++p) {
          s.a |= ((w.w[wd * arity + p] >> bit) & 1) << p;
        }
        s.b = state_bit(w.b, w.w, arity * K, wd, bit) ? 1 : 0;
        break;
      }
    }
  }
  return out;
}

std::vector<bool> detected_faults(const circuit::Circuit& c,
                                  const std::vector<StuckAtFault>& faults,
                                  const std::vector<LpState>& finals,
                                  unsigned lanes) {
  PLS_CHECK_MSG(finals.size() == c.size(),
                "final-state vector does not match the circuit");
  PLS_CHECK_MSG(lanes >= 2 && lanes <= kMaxLanes, "lane count out of range");
  PLS_CHECK_MSG(faults.size() < lanes,
                "fault lanes exceed the run's lane count");
  const unsigned K = lane_words(lanes);
  // OR together the divergence accumulators of every observing gate; the
  // accumulator slot depends on the behaviour's state layout (see above).
  std::uint64_t divergent[kMaxLaneWords] = {};
  for (circuit::GateId g : c.primary_outputs()) {
    const LpState& s = finals[g];
    switch (c.type(g)) {
      case circuit::GateType::kDff:
        for (unsigned wd = 0; wd < K; ++wd) {
          divergent[wd] |= s.w.size() >= 3 * K - 2 + K ? s.w[3 * K - 2 + wd]
                                                       : 0;
        }
        break;
      case circuit::GateType::kInput:
        divergent[0] |= s.a;
        for (unsigned wd = 1; wd < K; ++wd) {
          divergent[wd] |= s.w[(K - 1) + wd - 1];
        }
        break;
      default: {
        const auto arity = c.fanins(g).size();
        divergent[0] |= s.a;
        for (unsigned wd = 1; wd < K; ++wd) {
          divergent[wd] |= s.w[arity * K + (K - 1) + wd - 1];
        }
        break;
      }
    }
  }
  std::vector<bool> out(faults.size());
  for (std::size_t i = 0; i < faults.size(); ++i) {
    const unsigned lane = static_cast<unsigned>(i) + 1;
    out[i] = ((divergent[lane / 64] >> (lane % 64)) & 1) != 0;
  }
  return out;
}

}  // namespace pls::logicsim
