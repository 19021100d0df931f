#pragma once
// Activity-derived weights shared by both multilevel pipelines.
//
// The simulator's cost model is not topological: a gate that switches ten
// times per clock costs ten times the work to host and ten times the
// messages to cut, regardless of its fanin count.  This module turns a
// per-gate activity profile (logicsim::profile_activity) into the
// two weight vectors the partitioners consume identically ("Multilevel"
// via the symmetrized graph, "MultilevelHG" via the hypergraph):
//
//   vertex[g]   work weight — how much simulation load gate g contributes
//               to its node.  Drives the balance constraint.
//   traffic[g]  traffic weight of the net *driven by* g — how many events
//               per unit time cross that net.  Drives edge/net weights, so
//               coarsening keeps busy signals inside globules and
//               refinement prices cuts by real message counts (paper §6).
//
// On batched (multi-lane) runs both signals are lane-aware: the work
// profile counts committed lane *transitions* (the popcount of each
// event's change mask, summed over all value words — see
// logicsim::ActivityProfile and SeqStats::per_lp_lane_work), not raw
// event counts.  A gate whose inputs toggle across 128 lanes costs
// proportionally more CPU per event than one toggling a single lane, and
// the weights price that; on scalar runs every mask popcount is 1, so the
// two definitions coincide and nothing changes.
//
// Two invariants make the weighted path a strict superset of the
// unweighted one (property-tested in multilevel_core_test):
//   * vertex maps mean activity (1.0) to exactly 1, so a uniform profile
//     reproduces the unit-weight balance limit bit-for-bit;
//   * traffic maps a uniform profile to one constant, and every consumer
//     of traffic weights is scale-invariant (only comparisons and ratios
//     of them matter), so uniform activity reproduces today's partitions
//     assignment-for-assignment.

#include <cstdint>
#include <vector>

namespace pls::multilevel {

/// Work weights are clamp(round(activity), 1, kVertexCap): mean activity
/// is exactly weight 1, a hot gate counts as up to kVertexCap gates of
/// load.  The cap keeps one pathological gate from eating a whole part's
/// balance budget.
inline constexpr std::uint32_t kVertexCap = 8;
/// Traffic weights are clamp(round(kTrafficGranularity · activity), 1,
/// kTrafficCap): the granularity gives sub-mean resolution (a net at
/// 1.125× mean is distinguishable from mean) without floating-point edge
/// weights.
inline constexpr std::uint32_t kTrafficGranularity = 8;
inline constexpr std::uint32_t kTrafficCap = 256;
static_assert(kVertexCap >= 1);
static_assert(kTrafficGranularity >= 1);
static_assert(kTrafficCap >= kTrafficGranularity,
              "traffic cap must fit the uniform-activity weight");

/// Per-vertex work weights plus per-driver net/edge traffic weights, both
/// indexed by gate id.  Pointers to one of these thread through
/// MultilevelOptions / MultilevelHGOptions / CoarsenOptions; the referenced
/// object must outlive the partitioner run.
struct VertexTrafficWeights {
  std::vector<std::uint32_t> vertex;
  std::vector<std::uint32_t> traffic;

  /// True when the weights cannot change any partitioning decision: all
  /// work weights are 1 and all traffic weights equal one constant (every
  /// traffic consumer is scale-invariant).
  bool uniform() const noexcept;

  std::uint64_t total_vertex_weight() const noexcept;
};

/// Unit weights — the explicit spelling of the unweighted path.
VertexTrafficWeights uniform_weights(std::size_t n);

/// Derive weights from two mean-normalized activity profiles (1.0 =
/// average gate; see logicsim::profile_activity): `work` is events
/// executed per gate (drives vertex weights), `traffic` is output
/// transitions per gate (drives the weight of the net that gate drives).
/// The signals genuinely differ — a gate that is evaluated often but
/// rarely toggles is heavy work yet cheap to cut.
VertexTrafficWeights weights_from_activity(const std::vector<double>& work,
                                           const std::vector<double>& traffic);

/// Single-signal convenience: one profile drives both weights.
VertexTrafficWeights weights_from_activity(
    const std::vector<double>& activity);

}  // namespace pls::multilevel
