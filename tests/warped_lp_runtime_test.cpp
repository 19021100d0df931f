// Deterministic unit tests for the Time Warp rollback protocol in
// LpRuntime: queue discipline, batching, straggler rollback, anti-message
// annihilation, secondary rollback, output cancellation, coast-forward
// replay under periodic state saving, fossil collection and finalize,
// commit accounting and the input queue's footprint rule.

#include <gtest/gtest.h>

#include <bit>
#include <map>
#include <utility>

#include "util/check.hpp"
#include "warped/lp_runtime.hpp"

namespace pls::warped {
namespace {

/// Minimal behaviour object (LpRuntime never calls it in these tests).
class NullLp final : public LogicalProcess {
 public:
  void init(Context&) override {}
  void execute(Context&, EventBatch) override {}
};

Event ev(SimTime recv, LpId target, LpId sender, std::uint64_t id,
         SimTime send = 0, std::uint32_t port = 0) {
  Event e;
  e.recv_time = recv;
  e.send_time = send;
  e.target = target;
  e.sender = sender;
  e.port = port;
  e.id = id;
  e.sign = Sign::kPositive;
  return e;
}

Event anti_of(const Event& e) {
  Event a = e;
  a.sign = Sign::kNegative;
  return a;
}

/// Process the next batch: state is bumped so snapshots are distinguishable.
void process_next(LpRuntime& rt) {
  SimTime t = 0;
  const EventBatch batch = rt.begin_batch(t);
  rt.state().a += batch.size();  // deterministic, observable state change
  rt.state().b = t;
  rt.commit_batch(t, batch.size());
}

TEST(LpRuntime, InsertKeepsQueueSortedAndBatchesByTime) {
  NullLp lp;
  LpRuntime rt(0, &lp);
  rt.insert(ev(10, 0, 1, 1));
  rt.insert(ev(5, 0, 1, 2));
  rt.insert(ev(10, 0, 2, 3));
  EXPECT_EQ(rt.next_time(), 5u);

  SimTime t = 0;
  EventBatch batch = rt.begin_batch(t);
  EXPECT_EQ(t, 5u);
  EXPECT_EQ(batch.size(), 1u);
  rt.commit_batch(5, 1);

  batch = rt.begin_batch(t);
  EXPECT_EQ(t, 10u);
  EXPECT_EQ(batch.size(), 2u);  // both events at t=10 in one batch
}

TEST(LpRuntime, NoUnprocessedMeansEndOfTime) {
  NullLp lp;
  LpRuntime rt(0, &lp);
  EXPECT_FALSE(rt.has_unprocessed());
  EXPECT_EQ(rt.next_time(), kEndOfTime);
  EXPECT_EQ(rt.gvt_min_time(), kEndOfTime);
}

TEST(LpRuntime, SnapshotAfterEveryBatchByDefault) {
  NullLp lp;
  LpRuntime rt(0, &lp);
  rt.insert(ev(5, 0, 1, 1));
  rt.insert(ev(10, 0, 1, 2));
  process_next(rt);
  process_next(rt);
  ASSERT_EQ(rt.snapshots().size(), 2u);
  EXPECT_EQ(rt.snapshots()[0].time, 5u);
  EXPECT_EQ(rt.snapshots()[1].time, 10u);
  EXPECT_EQ(rt.last_processed(), 10u);
}

TEST(LpRuntime, StragglerTriggersPrimaryRollback) {
  NullLp lp;
  LpRuntime rt(0, &lp);
  rt.insert(ev(5, 0, 1, 1));
  rt.insert(ev(10, 0, 1, 2));
  process_next(rt);  // t=5, state.a=1
  process_next(rt);  // t=10, state.a=2

  const auto res = rt.insert(ev(7, 0, 2, 3));
  EXPECT_TRUE(res.rolled_back);
  EXPECT_FALSE(res.secondary);
  EXPECT_EQ(res.rollback_time, 7u);
  EXPECT_EQ(res.unprocessed_events, 1u);  // the t=10 event
  // State restored to the post-t=5 snapshot.
  EXPECT_EQ(rt.state().a, 1u);
  EXPECT_EQ(rt.state().b, 5u);
  EXPECT_EQ(rt.last_processed(), 5u);
  EXPECT_EQ(rt.next_time(), 7u);
  EXPECT_EQ(rt.events_rolled_back(), 1u);

  // Reprocessing works through the straggler and beyond.
  process_next(rt);  // t=7
  process_next(rt);  // t=10 again
  EXPECT_EQ(rt.state().a, 3u);
  EXPECT_EQ(rt.last_processed(), 10u);
}

TEST(LpRuntime, EqualTimeStragglerRollsBackThatBatch) {
  NullLp lp;
  LpRuntime rt(0, &lp);
  rt.insert(ev(5, 0, 1, 1));
  process_next(rt);
  const auto res = rt.insert(ev(5, 0, 2, 2));
  EXPECT_TRUE(res.rolled_back);
  EXPECT_EQ(res.rollback_time, 5u);
  EXPECT_EQ(rt.state().a, 0u);  // back to the initial state
  SimTime t = 0;
  const EventBatch batch = rt.begin_batch(t);
  EXPECT_EQ(t, 5u);
  EXPECT_EQ(batch.size(), 2u);  // both events re-executed together
}

TEST(LpRuntime, RollbackCancelsOutputsAtOrAfterBoundary) {
  NullLp lp;
  LpRuntime rt(0, &lp);
  rt.insert(ev(5, 0, 1, 1));
  rt.insert(ev(10, 0, 1, 2));
  process_next(rt);
  rt.record_output(ev(6, 9, 0, 100, /*send=*/5));  // sent while at t=5
  process_next(rt);
  rt.record_output(ev(11, 9, 0, 101, /*send=*/10));  // sent while at t=10
  rt.record_output(ev(12, 8, 0, 102, /*send=*/10));

  const auto res = rt.insert(ev(7, 0, 2, 3));
  ASSERT_TRUE(res.rolled_back);
  // Outputs sent at t=10 >= 7 are cancelled; the t=5 output survives.
  ASSERT_EQ(res.antis.size(), 2u);
  EXPECT_EQ(res.antis[0].id, 101u);
  EXPECT_EQ(res.antis[0].sign, Sign::kNegative);
  EXPECT_EQ(res.antis[1].id, 102u);
  ASSERT_EQ(rt.output_queue().size(), 1u);
  EXPECT_EQ(rt.output_queue()[0].id, 100u);
}

TEST(LpRuntime, AntiForUnprocessedAnnihilatesSilently) {
  NullLp lp;
  LpRuntime rt(0, &lp);
  const Event pos = ev(10, 0, 1, 7);
  rt.insert(pos);
  const auto res = rt.insert(anti_of(pos));
  EXPECT_FALSE(res.rolled_back);
  EXPECT_FALSE(rt.has_unprocessed());
  EXPECT_TRUE(rt.input_queue().empty());
}

TEST(LpRuntime, AntiForProcessedCausesSecondaryRollback) {
  NullLp lp;
  LpRuntime rt(0, &lp);
  const Event pos = ev(5, 0, 1, 7);
  rt.insert(pos);
  rt.insert(ev(9, 0, 1, 8));
  process_next(rt);
  process_next(rt);

  const auto res = rt.insert(anti_of(pos));
  EXPECT_TRUE(res.rolled_back);
  EXPECT_TRUE(res.secondary);
  EXPECT_EQ(res.rollback_time, 5u);
  // The annihilated event is gone; only the t=9 event remains, pending.
  ASSERT_EQ(rt.input_queue().size(), 1u);
  EXPECT_EQ(rt.input_queue()[0].recv_time, 9u);
  EXPECT_EQ(rt.processed_count(), 0u);
  EXPECT_EQ(rt.state().a, 0u);  // back to the initial state
}

TEST(LpRuntime, AntiBeforePositiveIsRejected) {
  // Routes are FIFO per (sender, target): an anti without its positive
  // twin is a protocol error, never a message to park.
  NullLp lp;
  LpRuntime rt(0, &lp);
  const Event pos = ev(10, 0, 1, 7);
  EXPECT_THROW(rt.insert(anti_of(pos)), util::CheckError);
  EXPECT_TRUE(rt.input_queue().empty());
}

TEST(LpRuntime, AntiOnlyMatchesSameSenderAndId) {
  NullLp lp;
  LpRuntime rt(0, &lp);
  rt.insert(ev(10, 0, 1, 7));
  Event other = ev(10, 0, 2, 7);  // same id, different sender
  EXPECT_THROW(rt.insert(anti_of(other)), util::CheckError);
  EXPECT_EQ(rt.input_queue().size(), 1u);  // positive survived
}

TEST(LpRuntime, RollbackToTimeZeroForbidden) {
  NullLp lp;
  LpRuntime rt(0, &lp);
  rt.insert(ev(0, 0, 1, 1));  // init-phase event at t=0
  process_next(rt);
  // A straggler at t=0 would require cancelling init-phase sends.
  EXPECT_THROW(rt.insert(ev(0, 0, 2, 2)), util::CheckError);
}

TEST(LpRuntime, FossilCollectCommitsAndPrunes) {
  NullLp lp;
  LpRuntime rt(0, &lp);
  for (std::uint64_t i = 1; i <= 5; ++i) {
    rt.insert(ev(i * 10, 0, 1, i));
  }
  for (int i = 0; i < 5; ++i) process_next(rt);
  rt.record_output(ev(21, 9, 0, 100, /*send=*/20));
  rt.record_output(ev(41, 9, 0, 101, /*send=*/40));

  const auto res = rt.fossil_collect(35);
  // Snapshot base = t=30 (newest < 35); events <= 30 commit.
  EXPECT_EQ(res.committed_events, 3u);
  EXPECT_EQ(rt.input_queue().size(), 2u);
  // Snapshots: base t=30 plus t=40, t=50.
  ASSERT_EQ(rt.snapshots().size(), 3u);
  EXPECT_EQ(rt.snapshots()[0].time, 30u);
  // Output sent at t=20 < GVT pruned; t=40 output kept.
  ASSERT_EQ(rt.output_queue().size(), 1u);
  EXPECT_EQ(rt.output_queue()[0].id, 101u);

  // Rollback to a time at GVT still works off the kept base.
  const auto rb = rt.insert(ev(36, 0, 2, 50));
  EXPECT_TRUE(rb.rolled_back);
  EXPECT_EQ(rt.state().b, 30u);
}

TEST(LpRuntime, FossilCollectAtZeroIsNoop) {
  NullLp lp;
  LpRuntime rt(0, &lp);
  rt.insert(ev(5, 0, 1, 1));
  process_next(rt);
  EXPECT_EQ(rt.fossil_collect(0).committed_events, 0u);
  EXPECT_EQ(rt.input_queue().size(), 1u);
}

TEST(LpRuntime, FinalizeCommitsTrailingBatches) {
  NullLp lp;
  LpRuntime rt(0, &lp, /*state_period=*/3);
  for (std::uint64_t i = 1; i <= 4; ++i) rt.insert(ev(i * 10, 0, 1, i));
  for (int i = 0; i < 4; ++i) process_next(rt);
  // Only one snapshot (after batch 3); fossil at EOT keeps events beyond it.
  const auto fossil = rt.fossil_collect(kEndOfTime);
  EXPECT_EQ(fossil.committed_events, 3u);
  EXPECT_EQ(rt.finalize(), 1u);
  EXPECT_TRUE(rt.input_queue().empty());
}

/// fossil_idle() holds, and fossil_collect at every higher GVT is a no-op.
void expect_fossil_noop_from(LpRuntime& rt, SimTime gvt) {
  ASSERT_TRUE(rt.fossil_idle());
  const std::size_t live = rt.live_entries();
  for (const SimTime g : {gvt, saturating_add(gvt, 1),
                          saturating_add(gvt, 1000), kEndOfTime}) {
    EXPECT_EQ(rt.fossil_collect(g).committed_events, 0u) << "gvt " << g;
    EXPECT_EQ(rt.live_entries(), live) << "gvt " << g;
    EXPECT_TRUE(rt.fossil_idle()) << "gvt " << g;
  }
}

TEST(LpRuntime, FossilIdleAfterEverythingCommits) {
  for (const std::uint32_t period : {1u, 3u}) {
    SCOPED_TRACE(period);
    NullLp lp;
    LpRuntime rt(0, &lp, period);
    EXPECT_TRUE(rt.fossil_idle());  // fresh LP: nothing to collect
    for (std::uint64_t i = 1; i <= 3; ++i) rt.insert(ev(i * 10, 0, 1, i));
    EXPECT_TRUE(rt.fossil_idle());  // pending only
    for (int i = 0; i < 3; ++i) process_next(rt);
    rt.record_output(ev(31, 9, 0, 100, /*send=*/30));
    EXPECT_FALSE(rt.fossil_idle());
    // The t=30 batch is snapshotted at either period; GVT above it commits
    // all three events and prunes the output.
    EXPECT_EQ(rt.fossil_collect(31).committed_events, 3u);
    ASSERT_EQ(rt.snapshots().size(), 1u);
    expect_fossil_noop_from(rt, 31);
  }
}

TEST(LpRuntime, FossilIdleUnlessANewerSnapshotCoversProcessedEvents) {
  for (const std::uint32_t period : {1u, 3u}) {
    SCOPED_TRACE(period);
    NullLp lp;
    LpRuntime rt(0, &lp, period);
    for (std::uint64_t i = 1; i <= 4; ++i) rt.insert(ev(i * 10, 0, 1, i));
    for (int i = 0; i < 4; ++i) process_next(rt);
    // Period 1: GVT 35 keeps base t=30 plus the t=40 snapshot (a second
    // snapshot) and the processed t=40 event, which GVT 41 commits.
    // Period 3: the only snapshot is t=30, so even GVT end-of-time leaves
    // t=40 processed past it, and no GVT can commit it before the LP
    // executes again and takes a newer snapshot: the LP is idle.
    rt.fossil_collect(period == 1 ? 35 : kEndOfTime);
    EXPECT_EQ(rt.processed_count(), 1u);
    if (period == 1) {
      EXPECT_FALSE(rt.fossil_idle());
      EXPECT_EQ(rt.snapshots().size(), 2u);
      EXPECT_EQ(rt.fossil_collect(41).committed_events, 1u);
      expect_fossil_noop_from(rt, 41);
    } else {
      EXPECT_TRUE(rt.fossil_idle());
      ASSERT_EQ(rt.snapshots().size(), 1u);
      expect_fossil_noop_from(rt, rt.snapshots()[0].time + 1);
      EXPECT_EQ(rt.processed_count(), 1u);
    }
  }
}

TEST(LpRuntime, FossilNotIdleWithUncommittedOutput) {
  // Period 3 snapshots only t=30.  A straggler at 38 restores it and
  // leaves the t=35 batch as a muted replay whose output (sent at 35)
  // stays valid.  GVT 32 commits everything processed, but that output
  // must wait for GVT > 35.
  NullLp lp;
  LpRuntime rt(0, &lp, /*state_period=*/3);
  for (const SimTime t : {10, 20, 30, 35, 40}) rt.insert(ev(t, 0, 1, t));
  for (int i = 0; i < 5; ++i) process_next(rt);
  rt.record_output(ev(36, 9, 0, 100, /*send=*/35));
  ASSERT_TRUE(rt.insert(ev(38, 0, 2, 9)).rolled_back);
  EXPECT_TRUE(rt.in_replay(35));
  EXPECT_EQ(rt.fossil_collect(32).committed_events, 3u);
  EXPECT_EQ(rt.processed_count(), 0u);
  ASSERT_EQ(rt.snapshots().size(), 1u);
  ASSERT_EQ(rt.output_queue().size(), 1u);
  EXPECT_FALSE(rt.fossil_idle());
  const std::size_t live = rt.live_entries();
  EXPECT_EQ(rt.fossil_collect(36).committed_events, 0u);
  EXPECT_EQ(rt.live_entries(), live - 1);  // the output committed
  expect_fossil_noop_from(rt, 36);
}

// ---- periodic state saving & coast-forward replay -------------------------

TEST(LpRuntime, PeriodicSavingSnapshotsEveryNth) {
  NullLp lp;
  LpRuntime rt(0, &lp, /*state_period=*/2);
  for (std::uint64_t i = 1; i <= 5; ++i) rt.insert(ev(i * 10, 0, 1, i));
  for (int i = 0; i < 5; ++i) process_next(rt);
  ASSERT_EQ(rt.snapshots().size(), 2u);
  EXPECT_EQ(rt.snapshots()[0].time, 20u);
  EXPECT_EQ(rt.snapshots()[1].time, 40u);
}

TEST(LpRuntime, ReplayWindowAfterRollbackWithPeriodicSaving) {
  NullLp lp;
  LpRuntime rt(0, &lp, /*state_period=*/3);
  for (std::uint64_t i = 1; i <= 4; ++i) rt.insert(ev(i * 10, 0, 1, i));
  for (int i = 0; i < 4; ++i) process_next(rt);  // snapshot only at t=30
  rt.record_output(ev(15, 9, 0, 100, /*send=*/10));
  rt.record_output(ev(45, 9, 0, 101, /*send=*/40));

  // Straggler at t=35: restore snapshot t=30, cancel only outputs >= 35.
  const auto res = rt.insert(ev(35, 0, 2, 9));
  ASSERT_TRUE(res.rolled_back);
  ASSERT_EQ(res.antis.size(), 1u);
  EXPECT_EQ(res.antis[0].id, 101u);
  EXPECT_EQ(rt.last_processed(), 30u);
  // Batches in (30, 35) — none here — would replay muted; t=35 is live.
  EXPECT_FALSE(rt.in_replay(35));

  // Now a deeper straggler at t=25: snapshot base is the initial state,
  // and batches at 10 and 20 become a muted replay window.
  const auto res2 = rt.insert(ev(25, 0, 2, 10));
  ASSERT_TRUE(res2.rolled_back);
  EXPECT_EQ(rt.last_processed(), 0u);
  EXPECT_TRUE(rt.in_replay(10));
  EXPECT_TRUE(rt.in_replay(20));
  EXPECT_FALSE(rt.in_replay(25));
  // The t=10 output survived (send_time 10 < 25): replay must not resend.
  ASSERT_EQ(rt.output_queue().size(), 1u);
  EXPECT_EQ(rt.output_queue()[0].id, 100u);
}

TEST(LpRuntime, PositiveArrivingInsideReplayWindowForcesRollback) {
  NullLp lp;
  LpRuntime rt(0, &lp, /*state_period=*/4);
  for (std::uint64_t i = 1; i <= 4; ++i) rt.insert(ev(i * 10, 0, 1, i));
  for (int i = 0; i < 4; ++i) process_next(rt);  // snapshot at t=40 only
  rt.record_output(ev(26, 9, 0, 100, /*send=*/25));  // would be stale

  // Hmm: outputs at send=25 require a processed batch at 25; adjust by
  // rolling back to 35 first to open a replay window (30, 35).
  rt.insert(ev(35, 0, 2, 9));          // rollback to 35; replay < 35
  EXPECT_TRUE(rt.in_replay(30));
  // While replaying, a brand-new positive at t=20 (inside the window whose
  // outputs are still live) must rollback again, not just insert.
  const auto res = rt.insert(ev(20, 0, 3, 11));
  EXPECT_TRUE(res.rolled_back);
  EXPECT_EQ(res.rollback_time, 20u);
}

TEST(LpRuntime, EventIdsMonotonicAcrossRollbacks) {
  NullLp lp;
  LpRuntime rt(0, &lp);
  const auto a = rt.alloc_event_id();
  const auto b = rt.alloc_event_id();
  EXPECT_LT(a, b);
  rt.insert(ev(5, 0, 1, 1));
  process_next(rt);
  rt.insert(ev(5, 0, 2, 2));  // rollback
  EXPECT_GT(rt.alloc_event_id(), b);
}

TEST(LpRuntime, ProcessedCountsTrackReexecution) {
  NullLp lp;
  LpRuntime rt(0, &lp);
  rt.insert(ev(5, 0, 1, 1));
  process_next(rt);
  rt.insert(ev(3, 0, 1, 2));  // rollback; both pending again
  process_next(rt);           // t=3
  process_next(rt);           // t=5 re-executed
  EXPECT_EQ(rt.events_processed(), 3u);  // 1 + 2 after replaying
  EXPECT_EQ(rt.events_rolled_back(), 1u);
}

TEST(LpRuntime, InsertForWrongTargetRejected) {
  NullLp lp;
  LpRuntime rt(3, &lp);
  EXPECT_THROW(rt.insert(ev(5, /*target=*/4, 1, 1)), util::CheckError);
}

// ---- commit accounting & input-queue footprint ----------------------------

/// A 3-word (192-lane) event whose mask word w is `mask` rotated left by
/// w, so it carries 3 × popcount(mask) lane transitions.
Event wide_ev(SimTime recv, LpId target, LpId sender, std::uint64_t id,
              std::uint64_t mask, SimTime send = 0) {
  Event e = ev(recv, target, sender, id, send);
  e.widen(3);
  for (std::uint32_t w = 0; w < 3; ++w) {
    e.set_value_word(w, ~std::uint64_t{0});
    e.set_mask_word(w, std::rotl(mask, static_cast<int>(w)));
  }
  return e;
}

/// Drives LP 0 the way the kernel does and keeps the reference books:
/// every executed batch that is not a muted replay sends a 3-word event
/// to LP 9 and a tick to itself; `inputs` holds the lane transitions of
/// every positive not annihilated, `sent` the (send time, transitions) of
/// every output not cancelled.
class AccountingHarness {
 public:
  explicit AccountingHarness(std::uint32_t period) : rt_(0, &lp_, period) {}

  LpRuntime& rt() { return rt_; }

  void insert(const Event& e) {
    const auto res = rt_.insert(e);
    const std::pair<LpId, std::uint64_t> key{e.sender, e.id};
    if (e.sign == Sign::kNegative) {
      inputs_.erase(key);
    } else {
      inputs_[key] = e.mask_popcount();
    }
    if (!res.rolled_back) return;
    // Aggressive cancellation: every output sent at or after the
    // rollback time, each with one anti-message.
    const std::size_t before = sent_.size();
    std::erase_if(sent_, [&](const std::pair<SimTime, std::uint64_t>& o) {
      return o.first >= res.rollback_time;
    });
    EXPECT_EQ(res.antis.size(), before - sent_.size());
    for (const Event& anti : res.antis) {
      EXPECT_EQ(anti.sender, 0u);
      EXPECT_EQ(anti.sign, Sign::kNegative);
    }
    check_running_totals();
  }

  /// Execute every pending batch.
  void run() {
    while (rt_.has_unprocessed()) {
      SimTime t = 0;
      const EventBatch batch = rt_.begin_batch(t);
      if (!rt_.in_replay(t)) {
        const Event out = wide_ev(t + 1, 9, 0, rt_.alloc_event_id(), 0xf0f, t);
        rt_.record_output(out);
        sent_.emplace_back(t, out.mask_popcount());
        rt_.record_output(ev(t + 5, 0, 0, rt_.alloc_event_id(), t));
        sent_.emplace_back(t, 0);  // self-sends weigh nothing
      }
      rt_.commit_batch(t, batch.size());
      check_running_totals();
    }
  }

  void fossil(SimTime gvt) {
    // Work leaving the live range is committed work.
    const std::uint64_t live_before = live_work(rt_.input_queue().size());
    rt_.fossil_collect(gvt);
    committed_work_ += live_before - live_work(rt_.input_queue().size());
    check_running_totals();
  }

  /// Sums over the committed inputs and the uncancelled outputs alone.
  std::uint64_t expected_lane_work() const {
    std::uint64_t n = 0;
    for (const auto& [key, work] : inputs_) n += work;
    return n;
  }
  std::uint64_t expected_sends() const {
    std::uint64_t n = 0;
    for (const auto& [send, transitions] : sent_) n += transitions;
    return n;
  }
  std::size_t expected_events() const { return inputs_.size(); }

 private:
  std::uint64_t live_work(std::size_t n) const {
    std::uint64_t w = 0;
    for (std::size_t i = 0; i < n; ++i) {
      w += rt_.input_queue()[i].mask_popcount();
    }
    return w;
  }

  /// Mid-run, the counters cover exactly the executed, not undone events
  /// and the recorded, not cancelled sends.
  void check_running_totals() const {
    EXPECT_EQ(rt_.lane_work_committed(),
              committed_work_ + live_work(rt_.processed_count()));
    EXPECT_EQ(rt_.sends_committed(), expected_sends());
  }

  NullLp lp_;
  LpRuntime rt_;
  std::map<std::pair<LpId, std::uint64_t>, std::uint64_t> inputs_;
  std::vector<std::pair<SimTime, std::uint64_t>> sent_;
  std::uint64_t committed_work_ = 0;
};

TEST(LpRuntime, CommitCountsSurviveRollbackCancellationAndReplay) {
  for (const std::uint32_t period : {1u, 3u}) {
    SCOPED_TRACE(period);
    AccountingHarness h(period);
    const Event b = wide_ev(20, 0, 1, 2, 0x7);
    h.insert(wide_ev(10, 0, 1, 1, 0x3));
    h.insert(b);
    h.insert(wide_ev(30, 0, 2, 3, 0x1));
    h.insert(wide_ev(40, 0, 1, 4, 0xf));
    h.insert(wide_ev(50, 0, 2, 5, 0x5));
    h.run();
    // Primary rollback to 45: period 1 restores t=40; period 3 restores
    // t=30 and coast-forwards t=40 muted.  The t=50 sends are cancelled.
    h.insert(wide_ev(45, 0, 2, 6, 0x3f));
    EXPECT_EQ(h.rt().next_time(), period == 3 ? 40u : 45u);
    EXPECT_TRUE(h.rt().in_replay(40));
    h.run();
    h.fossil(12);  // period 1 commits t=10; outputs sent at 10 retire
    // Secondary rollback: the anti for t=20 un-processes everything past
    // the base (period 1: t=10; period 3: the initial state, so t=10
    // replays muted) and cancels every send from t=20 on.
    Event anti = b;
    anti.sign = Sign::kNegative;
    h.insert(anti);
    EXPECT_EQ(h.rt().next_time(), period == 3 ? 10u : 30u);
    EXPECT_TRUE(h.rt().in_replay(10));
    h.run();
    h.fossil(kEndOfTime);
    h.rt().finalize();

    EXPECT_EQ(h.rt().events_committed(), h.expected_events());
    EXPECT_EQ(h.rt().lane_work_committed(), h.expected_lane_work());
    EXPECT_EQ(h.rt().sends_committed(), h.expected_sends());
    EXPECT_EQ(h.expected_events(), 5u);
    EXPECT_GT(h.expected_lane_work(), 3 * h.expected_events());
  }
}

TEST(LpRuntime, RetiredInputEntriesNeverOutnumberLiveOnes) {
  for (const std::uint32_t period : {1u, 3u}) {
    SCOPED_TRACE(period);
    NullLp lp;
    LpRuntime rt(0, &lp, period);
    // Four events stay queued ahead of the executed frontier, and GVT
    // trails the LP by one batch.
    for (std::uint64_t t = 1; t <= 4; ++t) rt.insert(ev(t, 0, 1, t));
    for (std::uint64_t b = 1; b <= 10000; ++b) {
      process_next(rt);
      rt.insert(ev(b + 4, 0, 1, b + 4));
      rt.fossil_collect(b);
      ASSERT_LE(rt.retired_entries(), rt.input_queue().size()) << "batch "
                                                                << b;
    }
    EXPECT_EQ(rt.events_processed(), 10000u);
    EXPECT_GE(rt.events_committed(), 10000u - 3);
  }
}

}  // namespace
}  // namespace pls::warped
