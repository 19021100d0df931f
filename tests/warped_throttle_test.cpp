// Adaptive optimism throttle: the controller must shrink under injected
// rollback storms, grow back when clean (including from starvation, where
// the sample is too thin to ever fill), never drop below its minimum
// window — and the kernel's window arithmetic must saturate instead of
// wrapping when GVT approaches end-of-time.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "warped/kernel.hpp"
#include "warped/throttle.hpp"

namespace pls::warped {
namespace {

ThrottleConfig adaptive_cfg() {
  ThrottleConfig cfg;
  cfg.mode = ThrottleMode::kAdaptive;
  return cfg;
}

/// Runs the controller past any shrink cooldown so the next sample counts.
void drain_cooldown(OptimismThrottle& t, std::uint64_t& round) {
  const ThrottleConfig cfg;
  for (std::uint64_t i = 0; i <= cfg.shrink_cooldown_rounds; ++i) {
    t.on_round(++round);
  }
}

TEST(SaturatingAdd, ClampsAtEndOfTime) {
  EXPECT_EQ(saturating_add(0, 0), 0u);
  EXPECT_EQ(saturating_add(10, 20), 30u);
  EXPECT_EQ(saturating_add(kEndOfTime, 0), kEndOfTime);
  EXPECT_EQ(saturating_add(kEndOfTime, 5), kEndOfTime);
  EXPECT_EQ(saturating_add(5, kEndOfTime), kEndOfTime);
  EXPECT_EQ(saturating_add(kEndOfTime - 3, 3), kEndOfTime);
  EXPECT_EQ(saturating_add(kEndOfTime - 3, 4), kEndOfTime);
  EXPECT_EQ(saturating_add(kEndOfTime, kEndOfTime), kEndOfTime);
}

TEST(Throttle, UnlimitedModeNeverMoves) {
  ThrottleConfig cfg;
  cfg.mode = ThrottleMode::kUnlimited;
  OptimismThrottle t(cfg, 500);
  EXPECT_EQ(t.window(), kEndOfTime);
  for (std::uint64_t r = 1; r < 20; ++r) {
    t.note_executed(1000, 900);
    t.note_rollback(900);
    t.on_round(r);
  }
  EXPECT_EQ(t.window(), kEndOfTime);
  EXPECT_TRUE(t.trajectory().empty());
}

TEST(Throttle, FixedModeNeverMoves) {
  ThrottleConfig cfg;
  cfg.mode = ThrottleMode::kFixed;
  OptimismThrottle t(cfg, 500);
  EXPECT_EQ(t.window(), 500u);
  for (std::uint64_t r = 1; r < 20; ++r) {
    t.note_executed(1000, 499);
    t.note_rollback(900);
    t.on_round(r);
  }
  EXPECT_EQ(t.window(), 500u);
  // The historical optimism_window == 0 convention: fixed at unbounded.
  OptimismThrottle open(cfg, 0);
  EXPECT_EQ(open.window(), kEndOfTime);
}

TEST(Throttle, ShrinksUnderRollbackStorm) {
  OptimismThrottle t(adaptive_cfg(), 1000);
  ASSERT_EQ(t.window(), 1000u);
  // Half the executed work rolled back, speculated deep into the window.
  t.note_executed(100, 900);
  t.note_rollback(50);
  t.on_round(1);
  EXPECT_LT(t.window(), 1000u);
  EXPECT_EQ(t.summary().shrinks, 1u);
  ASSERT_EQ(t.trajectory().size(), 1u);
  EXPECT_EQ(t.trajectory()[0].direction, -1);
  EXPECT_DOUBLE_EQ(t.trajectory()[0].rollback_fraction, 0.5);
}

TEST(Throttle, DeepStormShrinksHarder) {
  OptimismThrottle shallow(adaptive_cfg(), 1024);
  shallow.note_executed(200, 1000);
  shallow.note_rollback(50);  // depth 50 <= deep_rollback_depth
  shallow.on_round(1);

  OptimismThrottle deep(adaptive_cfg(), 1024);
  deep.note_executed(200, 1000);
  deep.note_rollback(50);
  deep.note_rollback(100);  // one rollback deeper than deep_rollback_depth
  deep.on_round(1);

  EXPECT_LT(deep.window(), shallow.window());
}

TEST(Throttle, StragglerJitterDoesNotShrink) {
  // Heavy rollbacks whose speculation never reached the window region:
  // no reachable window prevents them, so the controller must hold, not
  // starve the node.
  OptimismThrottle t(adaptive_cfg(), 1000);
  t.note_executed(100, 20);  // lead far below window/2
  t.note_rollback(60);
  t.on_round(1);
  EXPECT_EQ(t.window(), 1000u);
  EXPECT_EQ(t.summary().shrinks, 0u);
}

TEST(Throttle, PersistentStormRespectsLowerBound) {
  ThrottleConfig cfg = adaptive_cfg();
  OptimismThrottle t(cfg, 4096);
  for (std::uint64_t r = 1; r < 200; ++r) {
    t.note_executed(100, 4000);
    t.note_rollback(90);
    t.on_round(r);
    ASSERT_GE(t.window(), cfg.min_window);
  }
  EXPECT_EQ(t.window(), cfg.min_window);
  EXPECT_EQ(t.summary().min_window_seen, cfg.min_window);
  EXPECT_GT(t.summary().shrinks, 1u);
}

TEST(Throttle, GrowsWhenCleanUntilFullyOpen) {
  OptimismThrottle t(adaptive_cfg(), 64);
  SimTime prev = t.window();
  for (std::uint64_t r = 1; r < 100; ++r) {
    t.note_executed(100, 32);
    t.on_round(r);
    ASSERT_GE(t.window(), prev);
    prev = t.window();
  }
  // No storm on record: clean samples keep doubling the window until it
  // is fully open again.
  EXPECT_EQ(t.window(), kEndOfTime);
  EXPECT_GT(t.summary().grows, 0u);
  EXPECT_EQ(t.summary().shrinks, 0u);
}

TEST(Throttle, StarvedNodeGrowsOnThinSample) {
  ThrottleConfig cfg = adaptive_cfg();
  OptimismThrottle t(cfg, 64);
  // No executed events at all: the sample can never fill, yet the window
  // must still be able to grow (starvation is self-inflicted).
  std::uint64_t round = 0;
  for (std::uint64_t i = 0; i < 2 * cfg.max_rounds_per_decision; ++i) {
    t.on_round(++round);
  }
  EXPECT_GT(t.window(), 64u);
}

TEST(Throttle, GrowthTurnsAdditiveAboveStormThreshold) {
  OptimismThrottle t(adaptive_cfg(), 1000);
  std::uint64_t round = 0;
  // Storm at w=1000 marks the threshold and halves the window.
  t.note_executed(100, 990);
  t.note_rollback(60);
  t.on_round(++round);
  const SimTime after_shrink = t.window();
  ASSERT_EQ(after_shrink, 500u);
  drain_cooldown(t, round);

  // Clean growth: slow-start doubles only up to the threshold...
  t.note_executed(100, 100);
  t.on_round(++round);
  EXPECT_EQ(t.window(), 1000u);
  // ...then probes past it additively (1/8 per decision), far slower.
  t.note_executed(100, 100);
  t.on_round(++round);
  EXPECT_EQ(t.window(), 1000u + 1000u / 8);
}

// ---------------------------------------------------------------------------
// Kernel-level regression: window arithmetic near kEndOfTime.

/// Schedules its own events at virtual times within a few ticks of
/// kEndOfTime; any wrap in the kernel's GVT + window sum blocks the run.
class EndOfTimeLp final : public LogicalProcess {
 public:
  void init(Context& ctx) override {
    ctx.schedule_self(kEndOfTime - 10);
  }
  void execute(Context& ctx, EventBatch batch) override {
    LpState& s = ctx.state();
    for (const auto& e : batch) {
      (void)e;
      s.a += 1;
    }
    // Subtract, don't add: now + 4 itself wraps this close to kEndOfTime.
    if (ctx.now() <= ctx.end_time() - 4) ctx.schedule_self(ctx.now() + 4);
  }
};

TEST(Throttle, WindowDoesNotWrapNearEndOfTime) {
  // With the historical `gvt + window` wrap, GVT reaching ~kEndOfTime
  // collapses the window to a tiny value, the final events can never
  // execute, and the run only ends via the watchdog (stalled = true).
  std::vector<std::unique_ptr<LogicalProcess>> owners;
  std::vector<LogicalProcess*> lps;
  for (int i = 0; i < 2; ++i) {
    owners.push_back(std::make_unique<EndOfTimeLp>());
    lps.push_back(owners.back().get());
  }
  KernelConfig cfg;
  cfg.end_time = kEndOfTime - 2;
  cfg.throttle.mode = ThrottleMode::kFixed;
  cfg.optimism_window = 100;
  cfg.gvt_interval_us = 200;
  cfg.watchdog_timeout_ms = 5000;  // bounds the failure mode, not the fix
  Kernel kernel(lps, {0, 0}, cfg);
  const RunStats out = kernel.run();
  EXPECT_FALSE(out.stalled);
  EXPECT_EQ(out.final_gvt, kEndOfTime);
  for (const auto& s : out.final_states) EXPECT_EQ(s.a, 3u);
}

TEST(Throttle, AdaptiveRunReportsTrajectory) {
  // End-to-end: an adaptive run exposes per-node summaries + decisions.
  std::vector<std::unique_ptr<LogicalProcess>> owners;
  std::vector<LogicalProcess*> lps;
  for (int i = 0; i < 2; ++i) {
    owners.push_back(std::make_unique<EndOfTimeLp>());
    lps.push_back(owners.back().get());
  }
  KernelConfig cfg;
  cfg.num_nodes = 2;
  cfg.end_time = kEndOfTime - 2;
  cfg.gvt_interval_us = 200;
  Kernel kernel(lps, {0, 1}, cfg);
  const RunStats out = kernel.run();
  EXPECT_FALSE(out.stalled);
  ASSERT_EQ(out.throttle.size(), 2u);
  for (const auto& tr : out.throttle) {
    EXPECT_EQ(tr.summary.mode, ThrottleMode::kAdaptive);
    EXPECT_GE(tr.summary.final_window, ThrottleConfig{}.min_window);
  }
}

}  // namespace
}  // namespace pls::warped
