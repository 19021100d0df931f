// Timing test of the kernel's watchdog: the end of a run must not wait out
// the watchdog's nap.  It runs alone (RUN_SERIAL in tests/CMakeLists.txt):
// under a fully loaded host the watchdog thread's scheduling delay, not
// its nap, would set the time it measures.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <vector>

#include "warped/kernel.hpp"

namespace pls::warped {
namespace {

/// Every 5 ticks, passes a token to the next LP of a ring.
class RingLp final : public LogicalProcess {
 public:
  explicit RingLp(LpId next) : next_(next) {}

  void init(Context& ctx) override { ctx.schedule_self(5); }

  void execute(Context& ctx, EventBatch batch) override {
    bool tick = false;
    for (const auto& e : batch) tick |= e.port == kTickPort;
    if (!tick) return;
    ctx.state().a += 1;
    if (ctx.now() + 1 <= ctx.end_time()) ctx.send(next_, ctx.now() + 1, 0, 1);
    if (ctx.now() + 5 <= ctx.end_time()) ctx.schedule_self(ctx.now() + 5);
  }

 private:
  LpId next_;
};

/// Wall seconds of one run of a 4-LP ring on 2 nodes to t = 50.
double tiny_run(std::uint64_t watchdog_ms) {
  std::vector<std::unique_ptr<RingLp>> owners;
  std::vector<LogicalProcess*> lps;
  for (LpId i = 0; i < 4; ++i) {
    owners.push_back(std::make_unique<RingLp>((i + 1) % 4));
    lps.push_back(owners.back().get());
  }
  KernelConfig cfg;
  cfg.num_nodes = 2;
  cfg.end_time = 50;
  cfg.watchdog_timeout_ms = watchdog_ms;
  Kernel kernel(lps, {0, 1, 0, 1}, cfg);
  const auto start = std::chrono::steady_clock::now();
  const RunStats out = kernel.run();
  const auto stop = std::chrono::steady_clock::now();
  EXPECT_FALSE(out.stalled);
  EXPECT_EQ(out.final_states[0].a, 10u);
  return std::chrono::duration<double>(stop - start).count();
}

TEST(Watchdog, DoesNotDelayTheEndOfARun) {
  // The watchdog naps 10 ms at a time; run() must wake it when the nodes
  // finish.  Twenty tiny runs with the default watchdog take at most 1.5x
  // the same runs without it.  Each run counts its best of three tries,
  // interleaved with the watchdog off; a waited-out nap costs several ms
  // on every try.
  const std::uint64_t default_ms = KernelConfig{}.watchdog_timeout_ms;
  ASSERT_GT(default_ms, 0u);
  double with = 0.0;
  double without = 0.0;
  for (int run = 0; run < 20; ++run) {
    double best_with = 1e9;
    double best_without = 1e9;
    for (int attempt = 0; attempt < 3; ++attempt) {
      best_with = std::min(best_with, tiny_run(default_ms));
      best_without = std::min(best_without, tiny_run(0));
    }
    with += best_with;
    without += best_without;
  }
  EXPECT_LE(with, 1.5 * without)
      << "20 runs take " << with << " s with the watchdog and " << without
      << " s without it";
}

}  // namespace
}  // namespace pls::warped
