#include "logicsim/activity.hpp"

#include "logicsim/sequential.hpp"

namespace pls::logicsim {
namespace {

/// Mean-normalize raw per-gate counts (1.0 = average gate; all-zero counts
/// normalize to all-zero).
std::vector<double> normalize_counts(
    const std::vector<std::uint64_t>& counts) {
  double total = 0.0;
  for (auto n : counts) total += static_cast<double>(n);
  const double mean =
      total > 0.0 ? total / static_cast<double>(counts.size()) : 1.0;

  std::vector<double> activity(counts.size(), 0.0);
  for (std::size_t i = 0; i < activity.size(); ++i) {
    activity[i] =
        static_cast<double>(counts[i]) / (mean > 0.0 ? mean : 1.0);
  }
  return activity;
}

}  // namespace

ActivityProfile profile_activity(const circuit::Circuit& c,
                                 const ModelOptions& opt,
                                 warped::SimTime profile_end) {
  SimModel model = build_model(c, opt);
  const SeqStats stats =
      simulate_sequential(model.behaviours(), profile_end, 0);

  ActivityProfile p;
  // Lane-aware work: an event's cost scales with the lanes it toggles
  // (mask popcount), so batched runs weight gates by real evaluation
  // work; identical to per_lp_events on scalar runs.
  p.work = normalize_counts(stats.per_lp_lane_work);

  // sends(g) counts one event per (transition, sink) pair; dividing by the
  // fanout degree recovers transitions, the per-net traffic rate.
  std::vector<std::uint64_t> transitions(c.size(), 0);
  for (circuit::GateId g = 0; g < c.size(); ++g) {
    const std::size_t fanout = c.fanouts(g).size();
    transitions[g] =
        fanout > 0 ? stats.per_lp_sends[g] / fanout : stats.per_lp_sends[g];
  }
  p.traffic = normalize_counts(transitions);
  return p;
}

}  // namespace pls::logicsim
