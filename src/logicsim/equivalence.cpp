#include "logicsim/equivalence.hpp"

#include <algorithm>
#include <sstream>

namespace pls::logicsim {

EquivalenceReport check_equivalence(const warped::RunStats& parallel,
                                    const SeqStats& sequential) {
  EquivalenceReport rep;
  rep.parallel_committed = parallel.totals.events_committed;
  rep.sequential_processed = sequential.events_processed;
  rep.counts_equal = rep.parallel_committed == rep.sequential_processed;

  rep.states_equal =
      parallel.final_states.size() == sequential.final_states.size();
  if (rep.states_equal) {
    for (std::size_t i = 0; i < parallel.final_states.size(); ++i) {
      if (!(parallel.final_states[i] == sequential.final_states[i])) {
        rep.states_equal = false;
        rep.first_mismatch_lp = i;
        break;
      }
    }
  }

  // Per-LP committed counters against the sequential profile (whose three
  // vectors are sized alike).
  const auto differs = [&](std::size_t lp, const char* counter,
                           std::uint64_t par, std::uint64_t seq) {
    if (par == seq) return false;
    std::ostringstream os;
    os << "LP " << lp << ": " << counter << " " << par << " != sequential "
       << seq;
    rep.counter_mismatch = os.str();
    return true;
  };
  const std::size_t n = parallel.per_lp.size();
  const std::size_t m = sequential.per_lp_events.size();
  if (differs(std::min(n, m), "LP count", n, m)) return rep;
  for (std::size_t lp = 0; lp < n; ++lp) {
    const warped::LpStats& s = parallel.per_lp[lp];
    if (differs(lp, "events_committed", s.events_committed,
                sequential.per_lp_events[lp]) ||
        differs(lp, "lane_work_committed", s.lane_work_committed,
                sequential.per_lp_lane_work[lp]) ||
        differs(lp, "sends_committed", s.sends_committed,
                sequential.per_lp_sends[lp])) {
      break;
    }
  }
  return rep;
}

EquivalenceReport check_lane_equivalence(
    const circuit::Circuit& c,
    const std::vector<warped::LpState>& batched_finals, unsigned lane,
    unsigned lanes, const std::vector<warped::LpState>& scalar_finals) {
  EquivalenceReport rep;
  rep.counts_equal = true;  // counts intentionally differ across widths
  const std::vector<warped::LpState> projected =
      extract_lane_states(c, batched_finals, lane, lanes);
  rep.states_equal = projected.size() == scalar_finals.size();
  if (rep.states_equal) {
    for (std::size_t i = 0; i < projected.size(); ++i) {
      if (!(projected[i] == scalar_finals[i])) {
        rep.states_equal = false;
        rep.first_mismatch_lp = i;
        break;
      }
    }
  }
  return rep;
}

std::string EquivalenceReport::describe() const {
  std::ostringstream os;
  if (ok()) {
    os << "equivalent (" << parallel_committed << " committed events)";
    return os.str();
  }
  if (!states_equal) {
    os << "state mismatch at LP " << first_mismatch_lp << "; ";
  }
  if (!counts_equal) {
    os << "committed " << parallel_committed << " != sequential "
       << sequential_processed;
    if (!counter_mismatch.empty()) os << "; ";
  }
  os << counter_mismatch;
  return os.str();
}

}  // namespace pls::logicsim
