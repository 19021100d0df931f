// End-to-end tests of the threaded Time Warp kernel on small hand-built LP
// systems: determinism across node counts, accounting invariants, network
// model, optimism throttle, periodic state saving, the OOM guard and the
// watchdog.

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <regex>
#include <string>
#include <thread>
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

/// LP that makes one send the kernel must reject, through the one-word
/// send or a two-word send: from init() past the end time, or from
/// execute() at the current time.
class BadSendLp final : public LogicalProcess {
 public:
  BadSendLp(bool from_init, std::uint32_t words)
      : from_init_(from_init), words_(words) {}

  void init(Context& ctx) override {
    if (from_init_) send(ctx, ctx.end_time() + 1);
    else ctx.schedule_self(1);
  }

  void execute(Context& ctx, EventBatch) override { send(ctx, ctx.now()); }

 private:
  void send(Context& ctx, SimTime at) {
    const std::uint64_t values[2] = {1, 1};
    const std::uint64_t masks[2] = {1, 1};
    if (words_ == 1) ctx.send(ctx.self(), at, 0, values[0], masks[0]);
    else ctx.send_wide(ctx.self(), at, 0, values, masks, words_);
  }

  bool from_init_;
  std::uint32_t words_;
};

TEST(Kernel, RejectsSendsAtNowOrPastTheEndOnBothWidths) {
  for (std::uint32_t words : {1u, 2u}) {
    for (bool from_init : {true, false}) {
      BadSendLp lp(from_init, words);
      KernelConfig cfg;
      cfg.end_time = 10;
      // No watchdog thread: the single node runs on this thread, so the
      // check's exception reaches run()'s caller.
      cfg.watchdog_timeout_ms = 0;
      Kernel kernel({&lp}, {0}, cfg);
      const std::string expected =
          from_init ? "beyond the end time" : "not after now";
      try {
        kernel.run();
        ADD_FAILURE() << "no CheckError, words=" << words;
      } catch (const util::CheckError& e) {
        EXPECT_NE(std::string(e.what()).find(expected), std::string::npos)
            << e.what();
      }
    }
  }
}

/// Self-ticking LP that blocks its node thread for `nap_ms` the first time
/// it executes the batch at `nap_at` (rollback re-executions do not nap
/// again): GVT freezes while the thread sleeps.
class NappingTickLp final : public LogicalProcess {
 public:
  NappingTickLp(SimTime nap_at, std::uint64_t nap_ms)
      : nap_at_(nap_at), nap_ms_(nap_ms) {}

  void init(Context& ctx) override { ctx.schedule_self(1); }

  void execute(Context& ctx, EventBatch) override {
    ctx.state().a += 1;
    if (ctx.now() == nap_at_ && !napped_) {
      napped_ = true;
      std::this_thread::sleep_for(std::chrono::milliseconds(nap_ms_));
    }
    if (ctx.now() + 1 <= ctx.end_time()) ctx.schedule_self(ctx.now() + 1);
  }

 private:
  SimTime nap_at_;
  std::uint64_t nap_ms_;
  bool napped_ = false;
};

TEST(Kernel, WatchdogStallEndsInDiagnosedStats) {
  for (std::uint32_t nodes : {1u, 2u}) {
    std::vector<std::unique_ptr<NappingTickLp>> owners;
    std::vector<LogicalProcess*> lps;
    for (LpId i = 0; i < 4; ++i) {
      // Only LP 1 naps; the others would tick to the horizon.
      owners.push_back(std::make_unique<NappingTickLp>(
          i == 1 ? 50 : kEndOfTime, 300));
      lps.push_back(owners.back().get());
    }
    const std::vector<std::uint32_t> map = {0, nodes - 1, 0, nodes - 1};
    KernelConfig cfg;
    cfg.num_nodes = nodes;
    cfg.end_time = 100000;
    cfg.watchdog_timeout_ms = 50;
    Kernel kernel(lps, map, cfg);
    testing::internal::CaptureStderr();
    const RunStats out = kernel.run();
    const std::string err = testing::internal::GetCapturedStderr();

    EXPECT_TRUE(out.stalled) << "nodes=" << nodes;
    EXPECT_FALSE(out.out_of_memory) << "nodes=" << nodes;
    EXPECT_EQ(out.per_node.size(), nodes);
    EXPECT_EQ(out.final_states.size(), 4u);
    EXPECT_EQ(out.per_lp.size(), 4u);
    EXPECT_NE(err.find("WATCHDOG"), std::string::npos) << err;
    std::smatch m;
    const std::regex earliest(
        R"(earliest pending work: LP (\d+) at t=\d+ \(node (\d+)\))");
    ASSERT_TRUE(std::regex_search(err, m, earliest)) << err;
    const auto lp = std::stoul(m[1].str());
    ASSERT_LT(lp, map.size()) << err;
    EXPECT_EQ(std::stoul(m[2].str()), map[lp]) << err;
  }
}

}  // namespace
}  // namespace pls::warped
