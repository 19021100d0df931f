// End-to-end tests of the threaded Time Warp kernel on small hand-built LP
// systems: determinism across node counts, accounting invariants, network
// model, optimism throttle, periodic state saving and the OOM guard.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "warped/kernel.hpp"

namespace pls::warped {
namespace {

/// Ring LP: every `period` it increments a counter and passes a token to
/// the next LP in the ring; the token bumps a second counter.  Fully
/// deterministic, with constant cross-LP traffic (cross-node when the ring
/// is split), which provokes rollbacks at small periods.
class RingLp final : public LogicalProcess {
 public:
  RingLp(LpId next, SimTime period) : next_(next), period_(period) {}

  void init(Context& ctx) override {
    if (period_ <= ctx.end_time()) ctx.schedule_self(period_);
  }

  void execute(Context& ctx, EventBatch batch) override {
    LpState& s = ctx.state();
    bool tick = false;
    for (const auto& e : batch) {
      if (e.port == kTickPort) tick = true;
      else s.b += e.value;  // token received
    }
    if (!tick) return;
    s.a += 1;
    if (ctx.now() + 1 <= ctx.end_time()) {
      ctx.send(next_, ctx.now() + 1, 0, s.a);
    }
    if (ctx.now() + period_ <= ctx.end_time()) {
      ctx.schedule_self(ctx.now() + period_);
    }
  }

 private:
  LpId next_;
  SimTime period_;
};

struct Ring {
  std::vector<std::unique_ptr<RingLp>> owners;
  std::vector<LogicalProcess*> lps;
};

Ring make_ring(std::size_t n, SimTime period) {
  Ring r;
  for (LpId i = 0; i < n; ++i) {
    r.owners.push_back(
        std::make_unique<RingLp>(static_cast<LpId>((i + 1) % n), period));
  }
  for (auto& o : r.owners) r.lps.push_back(o.get());
  return r;
}

std::vector<std::uint32_t> round_robin(std::size_t n, std::uint32_t k) {
  std::vector<std::uint32_t> map(n);
  for (std::size_t i = 0; i < n; ++i) map[i] = i % k;
  return map;
}

RunStats run_ring(std::size_t n, std::uint32_t nodes, KernelConfig cfg) {
  Ring r = make_ring(n, 5);
  cfg.num_nodes = nodes;
  Kernel kernel(r.lps, round_robin(n, nodes), cfg);
  return kernel.run();
}

TEST(Kernel, SingleLpSelfTicksToCompletion) {
  Ring r = make_ring(1, 5);
  KernelConfig cfg;
  cfg.end_time = 100;
  Kernel kernel(r.lps, {0}, cfg);
  const RunStats out = kernel.run();
  // Ticks at 5,10,...,100 = 20 ticks; self-token arrives tick+1.
  EXPECT_EQ(out.final_states[0].a, 20u);
  EXPECT_EQ(out.final_gvt, kEndOfTime);
  EXPECT_FALSE(out.out_of_memory);
  EXPECT_GT(out.gvt_cycles, 0u);
}

TEST(Kernel, MultiNodeMatchesSingleNode) {
  KernelConfig cfg;
  cfg.end_time = 300;
  const RunStats ref = run_ring(12, 1, cfg);
  for (std::uint32_t nodes : {2u, 3u, 4u}) {
    const RunStats out = run_ring(12, nodes, cfg);
    ASSERT_EQ(out.final_states.size(), ref.final_states.size());
    for (std::size_t i = 0; i < ref.final_states.size(); ++i) {
      EXPECT_EQ(out.final_states[i], ref.final_states[i])
          << "LP " << i << " at nodes=" << nodes;
    }
    EXPECT_EQ(out.totals.events_committed, ref.totals.events_committed)
        << "nodes=" << nodes;
  }
}

TEST(Kernel, AccountingInvariantProcessedEqualsCommittedPlusRolledBack) {
  KernelConfig cfg;
  cfg.end_time = 400;
  for (std::uint32_t nodes : {1u, 2u, 4u}) {
    const RunStats out = run_ring(16, nodes, cfg);
    EXPECT_EQ(out.totals.events_processed,
              out.totals.events_committed + out.totals.events_rolled_back)
        << "nodes=" << nodes;
  }
}

TEST(Kernel, InterNodeMessagesOnlyWhenSplit) {
  KernelConfig cfg;
  cfg.end_time = 200;
  const RunStats one = run_ring(8, 1, cfg);
  EXPECT_EQ(one.totals.inter_node_messages, 0u);
  EXPECT_GT(one.totals.intra_node_events, 0u);

  const RunStats four = run_ring(8, 4, cfg);
  EXPECT_GT(four.totals.inter_node_messages, 0u);
}

TEST(Kernel, NetworkModelDelaysDelivery) {
  KernelConfig cfg;
  cfg.end_time = 200;
  cfg.network.latency_ns = 100000;  // 100 us
  cfg.network.send_overhead_ns = 1000;
  const RunStats out = run_ring(8, 2, cfg);
  // Correctness unaffected by latency.
  KernelConfig one_node;
  one_node.end_time = 200;
  const RunStats ref = run_ring(8, 1, one_node);
  for (std::size_t i = 0; i < ref.final_states.size(); ++i) {
    EXPECT_EQ(out.final_states[i], ref.final_states[i]);
  }
}

TEST(Kernel, PeriodicStateSavingMatchesEveryEvent) {
  KernelConfig every;
  every.end_time = 300;
  const RunStats ref = run_ring(10, 2, every);

  KernelConfig periodic;
  periodic.end_time = 300;
  periodic.state_period = 4;
  const RunStats out = run_ring(10, 2, periodic);
  for (std::size_t i = 0; i < ref.final_states.size(); ++i) {
    EXPECT_EQ(out.final_states[i], ref.final_states[i]) << "LP " << i;
  }
  EXPECT_EQ(out.totals.events_committed, ref.totals.events_committed);
}

TEST(Kernel, OptimismWindowStillCorrect) {
  KernelConfig cfg;
  cfg.end_time = 300;
  // Explicitly fixed: the default mode is adaptive, where optimism_window
  // is only the initial value — this test covers the hard-bounded path.
  cfg.throttle.mode = ThrottleMode::kFixed;
  cfg.optimism_window = 20;
  const RunStats out = run_ring(10, 3, cfg);
  KernelConfig one_node;
  one_node.end_time = 300;
  const RunStats ref = run_ring(10, 1, one_node);
  for (std::size_t i = 0; i < ref.final_states.size(); ++i) {
    EXPECT_EQ(out.final_states[i], ref.final_states[i]);
  }
}

TEST(Kernel, OutOfMemoryGuardAborts) {
  KernelConfig cfg;
  cfg.end_time = 1000000;  // would run a long time
  cfg.max_live_entries_per_node = 16;  // absurdly small
  cfg.gvt_interval_us = 200;
  const RunStats out = run_ring(12, 2, cfg);
  EXPECT_TRUE(out.out_of_memory);
}

TEST(Kernel, RejectsBadConfiguration) {
  Ring r = make_ring(4, 5);
  EXPECT_THROW(Kernel(r.lps, {0, 0, 0}, KernelConfig{}), util::CheckError);
  EXPECT_THROW(Kernel(r.lps, {0, 0, 0, 9}, KernelConfig{}),
               util::CheckError);
  EXPECT_THROW(
      Kernel(std::vector<LogicalProcess*>{}, {}, KernelConfig{}),
      util::CheckError);
}

TEST(Kernel, RunIsSingleUse) {
  Ring r = make_ring(2, 5);
  KernelConfig cfg;
  cfg.end_time = 20;
  Kernel kernel(r.lps, {0, 0}, cfg);
  kernel.run();
  EXPECT_THROW(kernel.run(), util::CheckError);
}

TEST(Kernel, EventCostSlowsButStaysCorrect) {
  KernelConfig cfg;
  cfg.end_time = 100;
  cfg.event_cost_ns = 2000;
  const RunStats out = run_ring(6, 2, cfg);
  KernelConfig one_node;
  one_node.end_time = 100;
  const RunStats ref = run_ring(6, 1, one_node);
  for (std::size_t i = 0; i < ref.final_states.size(); ++i) {
    EXPECT_EQ(out.final_states[i], ref.final_states[i]);
  }
}

TEST(Kernel, PerNodeStatsSumToTotals) {
  KernelConfig cfg;
  cfg.end_time = 300;
  const RunStats out = run_ring(12, 3, cfg);
  NodeStats sum;
  for (const auto& ns : out.per_node) sum.merge(ns);
  EXPECT_EQ(sum.events_committed, out.totals.events_committed);
  EXPECT_EQ(sum.events_processed, out.totals.events_processed);
  EXPECT_EQ(sum.inter_node_messages, out.totals.inter_node_messages);
  EXPECT_EQ(sum.primary_rollbacks, out.totals.primary_rollbacks);
}

}  // namespace
}  // namespace pls::warped
