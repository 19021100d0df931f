#pragma once
// Adaptive optimism throttling: a per-node feedback controller that sizes
// the GVT-relative execution window from observed rollback behaviour.
//
// Classic Time Warp lets every LP run arbitrarily far ahead of GVT; on the
// paper's workloads that optimism is paid back as rollbacks — the
// unlimited-optimism configs waste roughly half their executed events as
// undone work on one core.  A fixed window (KernelConfig::optimism_window)
// caps the damage but its right value depends on circuit, partition,
// node count and event grain, so a hand-picked constant is wrong almost
// everywhere.  The controller here makes the window self-tuning, with a
// control law shaped like TCP congestion control:
//
//  * each GVT round, a node accumulates a sample: events executed, events
//    un-done, the deepest single rollback, and the deepest virtual-time
//    lead (batch time minus GVT) it speculated to;
//  * SHRINK (multiplicative, ×0.5; doubled for a deep storm) when
//    the sample's rolled-back/executed fraction exceeds the budget
//    (default 20%) *and* the sample actually speculated into the window
//    region (lead ≥ window/2).  Rollbacks at small leads are straggler
//    jitter no reachable window prevents — shrinking for those only
//    starves the node, so the controller holds instead.  The pre-shrink
//    window is remembered as the storm threshold, and a short cooldown
//    discards the sample right after (it reflects the old window).
//  * GROW multiplicatively below the storm threshold ("slow start"), and
//    additively (+window/8) at or above it — probing back into the region
//    that last stormed instead of leaping over it.  A thin sample (too
//    few events to judge) forces growth on a period: a node starved by
//    its own window can never fill a sample, and that is exactly the
//    state the controller must be able to leave.
//  * the window never drops below min_window and may grow back to fully
//    open; an open window's first clamp anchors at the observed
//    speculation lead, not a constant.
//
// Progress is always safe: GVT is the minimum over *pending* work, so even
// the smallest window admits the globally earliest event once a round
// completes — throttling can slow a node down, never wedge it.  The
// kernel additionally starts a GVT round early whenever a node reports
// being window-blocked, so a tight window costs round latency in the
// 100 µs range rather than a full GVT interval.
//
// Threading: one OptimismThrottle per node, touched only by that node's
// thread; the kernel snapshots trajectories after the run.

#include <cstdint>
#include <string>
#include <vector>

#include "warped/types.hpp"

namespace pls::warped {

enum class ThrottleMode : std::uint8_t {
  kUnlimited,  ///< classic Time Warp: no window at all
  kFixed,      ///< static window = KernelConfig::optimism_window
  kAdaptive,   ///< feedback-controlled window (the default)
};

const char* to_string(ThrottleMode m) noexcept;
/// Parses "unlimited" | "fixed" | "adaptive"; returns false on anything else.
bool parse_throttle_mode(const std::string& s, ThrottleMode* out) noexcept;

struct ThrottleConfig {
  ThrottleMode mode = ThrottleMode::kAdaptive;

  /// Rollback budget: shrink while events_rolled_back / events_processed
  /// (per decision sample) exceeds this.
  double target_rollback_fraction = 0.20;

  // Fixed control-law constants.

  /// Grow when the observed fraction is below target * grow_margin
  /// (between the two thresholds the window holds — hysteresis).
  static constexpr double grow_margin = 0.5;
  static constexpr double shrink_factor = 0.5;
  /// Growth below the last storm threshold is multiplicative (this
  /// factor); at or above it the window grows additively by 1/8 of itself
  /// per decision (TCP-style congestion avoidance), so the controller
  /// probes back into the region that previously stormed instead of
  /// leaping over it and re-triggering the storm.
  static constexpr double grow_factor = 2.0;
  /// A rollback that undoes more than this many events in one go counts as
  /// a deep storm: the shrink is applied twice.
  static constexpr std::uint64_t deep_rollback_depth = 64;

  static constexpr SimTime min_window = 8;

  /// Do not decide on fewer observed events than this (noise floor); the
  /// sample keeps accumulating across rounds until it is large enough.
  static constexpr std::uint64_t min_sample_events = 32;

  /// Force a decision at least every this many GVT rounds even on a thin
  /// sample.  A node starved *by its own too-small window* executes few
  /// events, so waiting for a full sample would block exactly the growth
  /// decision that un-starves it; a thin sample always reads as "grow".
  static constexpr std::uint64_t max_rounds_per_decision = 2;

  /// Rounds to sit out after a shrink before sampling resumes.  The
  /// events rolled back right after a shrink were speculated under the
  /// *old* window, so deciding on them would double-penalize; the tainted
  /// sample is discarded when the cooldown expires.
  static constexpr std::uint64_t shrink_cooldown_rounds = 2;

  /// Cap on recorded trajectory entries per node (decisions beyond the cap
  /// still happen, they are just not recorded).
  static constexpr std::size_t max_trajectory = 4096;
};

/// One controller decision, recorded for RunStats.
struct ThrottleDecision {
  std::uint64_t round = 0;        ///< GVT round at which it was taken
  SimTime window = kEndOfTime;    ///< window *after* the decision
  double rollback_fraction = 0;   ///< observed over the decision sample
  int direction = 0;              ///< -1 shrink, 0 hold, +1 grow
};

struct ThrottleSummary {
  ThrottleMode mode = ThrottleMode::kAdaptive;
  std::uint64_t shrinks = 0;
  std::uint64_t grows = 0;
  std::uint64_t holds = 0;
  SimTime min_window_seen = kEndOfTime;
  SimTime final_window = kEndOfTime;
};

class OptimismThrottle {
 public:
  OptimismThrottle() : OptimismThrottle(ThrottleConfig{}, 0) {}

  /// `base_window` is the fixed window in kFixed mode and the initial
  /// window in kAdaptive mode; 0 means "start fully open" (and, in kFixed
  /// mode, behaves exactly like kUnlimited, matching the historical
  /// optimism_window == 0 convention).
  OptimismThrottle(ThrottleConfig cfg, SimTime base_window);

  /// Current window; kEndOfTime = unbounded optimism.
  SimTime window() const noexcept { return window_; }

  /// Record `events` executed in one batch whose time ran `lead` virtual
  /// time units ahead of the GVT the scheduler saw.
  void note_executed(std::uint64_t events, SimTime lead) noexcept;

  /// Record one rollback that un-did `events_undone` events.
  void note_rollback(std::uint64_t events_undone) noexcept;

  /// Feed the controller once per completed GVT round; in adaptive mode
  /// this is where the window moves.
  void on_round(std::uint64_t round);

  const std::vector<ThrottleDecision>& trajectory() const noexcept {
    return trajectory_;
  }
  ThrottleSummary summary() const noexcept;

 private:
  void decide(std::uint64_t round, bool full_sample);
  void record(std::uint64_t round, double fraction, int direction);
  /// Next window if this decision grows (slow start below the last storm
  /// threshold, additive probing at or above it).
  SimTime grown_window() const noexcept;

  ThrottleConfig cfg_;
  SimTime window_ = kEndOfTime;

  // Decision sample, reset after every decision.
  std::uint64_t sample_executed_ = 0;
  std::uint64_t sample_rolled_back_ = 0;
  std::uint64_t sample_max_depth_ = 0;
  SimTime sample_max_lead_ = 0;  ///< deepest speculation in the sample
  std::uint64_t rounds_since_decision_ = 0;
  std::uint64_t cooldown_ = 0;   ///< rounds left to sit out after a shrink
  /// Window at which the last storm was observed; growth turns additive
  /// here (kEndOfTime until the first shrink).
  SimTime storm_threshold_ = kEndOfTime;

  std::uint64_t shrinks_ = 0;
  std::uint64_t grows_ = 0;
  std::uint64_t holds_ = 0;
  SimTime min_window_seen_ = kEndOfTime;

  std::vector<ThrottleDecision> trajectory_;
};

}  // namespace pls::warped
