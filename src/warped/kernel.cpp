#include "warped/kernel.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>
#ifdef __GLIBC__
#include <malloc.h>
#endif

#include "obs/session.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"
#include "warped/ltsf_calendar.hpp"

namespace pls::warped {
namespace {

using util::steady_now_ns;

/// Idle polls (with yield) before the loop starts napping instead of
/// spinning.  Spinning reacts fastest while work is in flight; napping is
/// what keeps an oversubscribed machine (more node threads than cores)
/// from starving the thread that actually holds work.
constexpr std::uint64_t kIdleSpinPolls = 64;
/// Longest idle nap; bounds GVT-join and delivery latency.
constexpr std::uint64_t kIdleNapNs = 20'000;

}  // namespace

/// Per-node state.  Only the owning thread touches anything here except
/// `exec_ticks` (read by the watchdog); the node's multi-producer
/// receive endpoint lives in the kernel's InProcChannel, keyed by node id.
struct Kernel::Cluster {
  std::uint32_t node = 0;
  std::vector<LpId> own_lps;

  /// Per-LP bookkeeping, indexed by LpId: one 16-byte slot, so the
  /// scheduler mark, the live count and the fossil flag of an LP share a
  /// cache line.
  struct LpSlot {
    /// Time of the LP's single *live* calendar entry (kEndOfTime = none):
    /// pushes that would duplicate it are skipped, and a surfacing entry
    /// whose time differs from the mark is dropped dead instead of
    /// corrected-and-re-pushed.  Without the marks an always-busy LP
    /// (every batch schedules the next) grows the calendar by O(1)
    /// entries per batch forever.
    SimTime sched_mark = kEndOfTime;
    /// live_entries() as last observed (an LP's live entries stay far
    /// below 2^32: each one takes 32 bytes or more).
    std::uint32_t live = 0;
    /// Queued on fossil_lps.
    bool in_fossil = false;
  };
  static_assert(sizeof(LpSlot) == 16);
  std::vector<LpSlot> slot;

  // LTSF scheduler: lazy calendar over (next pending time, lp).  Entries
  // go stale when an LP's next_time changes; clean_top() discards them.
  LtsfCalendar sched;

  HoldingHeap holding;
  std::vector<InFlight> drain_buf;
  /// Routing work queue (FIFO per channel): the send path appends, and
  /// route() consumes it front to back and then clears it, so its
  /// capacity is reused from poll to poll.
  std::vector<Event> pending;
  std::uint64_t net_seq = 0;

  /// Per-destination send buffers (channel.hpp): remote routes add here
  /// (epoch-stamped and GVT-counted at add time); the main loop flushes
  /// every destination at each LTSF-burst end, and min_recv_time() joins
  /// the GVT report so a buffered send holds the estimate down.
  SendCoalescer coalescer;

  // GVT round this node has joined (epoch color of its sends).
  std::uint64_t my_round = 0;
  // Last completed-round count this node fossil-collected for.
  std::uint64_t last_fossil_round = 0;

  std::uint64_t idle_streak = 0;
  NodeStats stats;
  OptimismThrottle throttle;

  // Observability (src/obs/): null = off.  `trace` is this node's ring;
  // `gauges` the atomic mirrors the background sampler reads.
  obs::TraceRing* trace = nullptr;
  obs::NodeGauges* gauges = nullptr;
  /// This node's arena (mem/pool.hpp); installed as the thread's current
  /// pool for the whole node_main loop, so every wide event payload or
  /// state word allocated here is node-local.
  mem::Pool* pool = nullptr;
  /// Throttle-trajectory entries already traced.
  std::size_t traced_decisions = 0;

  /// Trace an instant now; a no-op with tracing off.
  void trace_now(obs::TraceKind kind, std::uint64_t a, std::uint64_t b,
                 std::uint32_t lp = ~std::uint32_t{0}) const {
    if (trace != nullptr) trace->record(kind, steady_now_ns(), 0, a, b, lp);
  }
  /// Start of a span for trace_span (0 with tracing off).
  std::uint64_t span_start() const {
    return trace != nullptr ? steady_now_ns() : 0;
  }
  /// Trace a span from `t0` to now; a no-op with tracing off.
  void trace_span(obs::TraceKind kind, std::uint64_t t0, std::uint64_t a,
                  std::uint64_t b, std::uint32_t lp = ~std::uint32_t{0}) const {
    if (trace == nullptr) return;
    const std::uint64_t t1 = steady_now_ns();
    trace->record(kind, t0, t1 > t0 ? t1 - t0 : 1, a, b, lp);
  }

  // Live-memory accounting, maintained incrementally at every queue
  // mutation (insert, commit, fossil) instead of only at
  // fossil passes — the high-water mark used to under-report between
  // fossil passes, exactly when a rollback storm balloons the queues.
  std::size_t live_now = 0;  ///< == sum of slot[lp].live over own LPs

  /// Refresh `lp`'s contribution to the live count and the peak.
  void note_live(const std::vector<LpRuntime>& rts, LpId lp) noexcept {
    const auto cur = static_cast<std::uint32_t>(rts[lp].live_entries());
    LpSlot& s = slot[lp];
    live_now += cur;
    live_now -= s.live;
    s.live = cur;
    if (live_now > stats.peak_live_entries) {
      stats.peak_live_entries = live_now;
    }
  }

  // Fossil work list: the LPs that executed or received here since a
  // fossil pass last found them LpRuntime::fossil_idle().  Nothing else
  // creates fossil work, so a pass that walks this list instead of
  // own_lps commits exactly the same events.  `LpSlot::in_fossil` dedups
  // the list.
  std::vector<LpId> fossil_lps;

  /// `lp`'s queues changed on this node: refresh its live count and queue
  /// it for the next fossil pass.
  void note_touched(const std::vector<LpRuntime>& rts, LpId lp) {
    note_live(rts, lp);
    if (!slot[lp].in_fossil) {
      slot[lp].in_fossil = true;
      fossil_lps.push_back(lp);
    }
  }

  /// Watchdog progress counter (relaxed; the owner adds each poll's
  /// executed batches).
  std::atomic<std::uint64_t> exec_ticks{0};

  /// Set by the owner when its next pending work sits beyond the optimism
  /// window: only a GVT advance can unblock it, so the controller starts
  /// the next round early instead of waiting out the full interval.
  std::atomic<bool> window_blocked{false};

  void push_sched(SimTime t, LpId lp) {
    if (t == kEndOfTime || slot[lp].sched_mark == t) return;
    slot[lp].sched_mark = t;
    sched.push(t, lp);
  }

  /// Discard stale calendar entries.  False when none is left; otherwise
  /// `top` is the earliest entry, live and exact.
  bool clean_top(const std::vector<LpRuntime>& rts, LtsfCalendar::Entry& top) {
    while (!sched.empty()) {
      top = sched.top();
      SimTime& mark = slot[top.lp].sched_mark;
      if (top.time != mark) {
        // Superseded duplicate: the LP's live entry is elsewhere (or was
        // re-marked); this one dies here instead of being re-pushed.
        sched.pop();
        continue;
      }
      const SimTime actual = rts[top.lp].next_time();
      if (actual == top.time) return true;
      sched.pop();
      mark = kEndOfTime;
      push_sched(actual, top.lp);
    }
    return false;
  }

  /// GVT report contribution of this cluster's LPs: the minimum
  /// gvt_min_time() over the LPs that hold a live calendar entry (an
  /// entry whose time equals its LP's mark).  Every LP with pending work
  /// holds one at its next_time() — push_sched follows every insert and
  /// commit, and clean_top re-pushes what it corrects — so an LP without
  /// one reports kEndOfTime and can be skipped.  The entry's time is not
  /// the report: an LP coast-forwarding through a replay window has
  /// pending batches *below* an already published GVT whose re-execution
  /// is effect-free, which gvt_min_time() excludes.  O(calendar), once per
  /// GVT round; debug builds check it against the O(own LPs) scan.
  SimTime gvt_report_min(const std::vector<LpRuntime>& rts) const {
    SimTime m = kEndOfTime;
    sched.for_each([&](const LtsfCalendar::Entry& e) {
      if (e.time == slot[e.lp].sched_mark) {
        m = std::min(m, rts[e.lp].gvt_min_time());
      }
    });
#ifndef NDEBUG
    SimTime full = kEndOfTime;
    for (LpId lp : own_lps) full = std::min(full, rts[lp].gvt_min_time());
    PLS_CHECK_MSG(m == full, "node " << node << " GVT report " << m
                                     << " from live calendar entries != "
                                     << full << " from every own LP");
#endif
    return m;
  }
};

namespace {

/// Context used while executing one batch on a cluster; buffers sends for
/// post-commit routing (sending mid-execution could cascade a rollback of
/// the very LP whose execute() frame is still live).
class ClusterContext final : public Context {
 public:
  ClusterContext(SimTime now, SimTime end, LpId self, LpRuntime* rt,
                 std::vector<Event>* out, bool suppress, bool init_mode)
      : now_(now), end_(end), self_(self), rt_(rt), out_(out),
        suppress_(suppress), init_mode_(init_mode) {}

  SimTime now() const override { return now_; }
  SimTime end_time() const override { return end_; }
  LpId self() const override { return self_; }
  LpState& state() override { return rt_->state(); }

  void send_wide(LpId target, SimTime recv_time, std::uint32_t port,
                 const std::uint64_t* values, const std::uint64_t* masks,
                 std::uint32_t k) override {
    PLS_CHECK_MSG(init_mode_ ? recv_time >= now_ : recv_time > now_,
                  "LP " << self_ << " scheduled an event at " << recv_time
                        << " not after now=" << now_);
    PLS_CHECK_MSG(recv_time <= end_ || recv_time == kEndOfTime,
                  "LP " << self_ << " scheduled beyond the end time");
    if (suppress_) return;  // coast-forward replay: outputs already exist
    Event ev;
    ev.recv_time = recv_time;
    ev.send_time = now_;
    ev.target = target;
    ev.sender = self_;
    ev.port = port;
    ev.sign = Sign::kPositive;
    ev.widen(k);  // a no-op for one word: it never touches the pool
    for (std::uint32_t w = 0; w < k; ++w) {
      ev.set_value_word(w, values[w]);
      ev.set_mask_word(w, masks[w]);
    }
    ev.id = rt_->alloc_event_id();
    rt_->record_output(ev);
    out_->push_back(std::move(ev));
  }

 private:
  SimTime now_;
  SimTime end_;
  LpId self_;
  LpRuntime* rt_;
  std::vector<Event>* out_;
  bool suppress_;
  bool init_mode_;
};

}  // namespace

Kernel::Kernel(std::vector<LogicalProcess*> lps,
               std::vector<std::uint32_t> node_of, KernelConfig cfg)
    : lps_(std::move(lps)), node_of_(std::move(node_of)), cfg_(cfg),
      channel_(cfg.num_nodes), gvt_coord_(cfg.num_nodes) {
  PLS_CHECK(cfg_.num_nodes >= 1);
  PLS_CHECK_MSG(lps_.size() == node_of_.size(),
                "node map size must equal LP count");
  PLS_CHECK_MSG(!lps_.empty(), "kernel needs at least one LP");
  pools_.reserve(cfg_.num_nodes);
  for (std::uint32_t n = 0; n < cfg_.num_nodes; ++n) {
    pools_.push_back(std::make_unique<mem::Pool>());
  }
  runtimes_.reserve(lps_.size());
  for (LpId i = 0; i < lps_.size(); ++i) {
    PLS_CHECK_MSG(lps_[i] != nullptr, "null LP behaviour");
    PLS_CHECK_MSG(node_of_[i] < cfg_.num_nodes,
                  "LP " << i << " mapped to node " << node_of_[i]
                        << " >= num_nodes");
    runtimes_.emplace_back(i, lps_[i], cfg_.state_period);
  }
  // Adaptive mode with no explicit window starts at a horizon-relative
  // guess instead of fully open: the controller converges either way, but
  // short runs never amortize the initial storm an open window invites.
  SimTime base_window = cfg_.optimism_window;
  if (cfg_.throttle.mode == ThrottleMode::kAdaptive && base_window == 0) {
    base_window = std::max(cfg_.throttle.min_window, cfg_.end_time / 16);
  }
  clusters_.reserve(cfg_.num_nodes);
  for (std::uint32_t n = 0; n < cfg_.num_nodes; ++n) {
    clusters_.push_back(std::make_unique<Cluster>());
    clusters_.back()->node = n;
    clusters_.back()->throttle = OptimismThrottle(cfg_.throttle, base_window);
    clusters_.back()->pool = pools_[n].get();
    clusters_.back()->coalescer.configure(&channel_, cfg_.coalesce);
  }
  for (LpId i = 0; i < lps_.size(); ++i) {
    clusters_[node_of_[i]]->own_lps.push_back(i);
  }
  for (auto& cl : clusters_) cl->slot.resize(lps_.size());
  if (cfg_.obs != nullptr) {
    PLS_CHECK_MSG(cfg_.obs->num_nodes() >= cfg_.num_nodes,
                  "ObsSession sized for fewer nodes than the kernel runs");
    for (std::uint32_t n = 0; n < cfg_.num_nodes; ++n) {
      clusters_[n]->trace = cfg_.obs->ring(n);
      clusters_[n]->gauges = &cfg_.obs->gauges(n);
    }
  }
}

Kernel::~Kernel() = default;

void Kernel::init_all_lps() {
  // Single-threaded elaboration: run every LP's init() and deliver its
  // initial sends directly (no network, no rollbacks possible yet).
  std::vector<Event> out;
  for (LpId i = 0; i < lps_.size(); ++i) {
    runtimes_[i].install_initial_state(lps_[i]->initial_state());
  }
  for (LpId i = 0; i < lps_.size(); ++i) {
    ClusterContext ctx(0, cfg_.end_time, i, &runtimes_[i], &out,
                       /*suppress=*/false, /*init_mode=*/true);
    lps_[i]->init(ctx);
    for (Event& ev : out) {
      const LpId target = ev.target;
      const auto res = runtimes_[target].insert(std::move(ev));
      PLS_CHECK_MSG(!res.rolled_back, "rollback during init phase");
    }
    out.clear();
  }
  for (std::uint32_t n = 0; n < cfg_.num_nodes; ++n) {
    for (LpId lp : clusters_[n]->own_lps) {
      clusters_[n]->push_sched(runtimes_[lp].next_time(), lp);
      clusters_[n]->note_touched(runtimes_, lp);
    }
  }
}

void Kernel::node_main(std::uint32_t node) {
  Cluster& cl = *clusters_[node];
  // Node-local arena for the whole loop: every wide payload this thread
  // allocates (inserts, snapshots) comes from — and recycles into — this
  // node's pool.
  mem::PoolScope pool_scope(cl.pool);
  while (!done_.load(std::memory_order_acquire) &&
         !stalled_.load(std::memory_order_relaxed)) {
    gvt_join(cl);
    if (node == 0) controller_poll(steady_now_ns());
    fossil_round(cl);
    receive(cl);
    route(cl);
    bool blocked_by_window = false;
    const bool executed = execute_burst(cl, blocked_by_window);
    flush(cl);
    // Only a throttled-and-otherwise-idle node asks for an early GVT
    // round: while batches still execute, the normal cadence is fine.
    cl.window_blocked.store(!executed && blocked_by_window,
                            std::memory_order_relaxed);
    publish_gauges(cl);
    idle(cl, executed);
  }
  // Defensive: the loop exits right after a burst-end flush with nothing
  // added since, so this is normally a no-op — but the final sweep in
  // run() must never find a message stranded in a send buffer.
  cl.coalescer.flush_all(steady_now_ns(), cfg_.network.latency_ns);
}

void Kernel::gvt_join(Cluster& cl) {
  // Join a newly started round (no rendezvous).
  const std::uint64_t r = gvt_coord_.round();
  if (r == cl.my_round) return;
  // cl.pending is empty here (route ran to completion last iteration), so
  // everything this node owes the world is in its LP queues, its holding
  // heap, or its send buffers — exactly what the report covers.  The
  // coalescer term is the GVT coalescing invariant: a buffered-but-
  // unflushed send must hold this node's report down (the burst-end flush
  // normally empties the buffers before we get here, but the report must
  // not depend on that scheduling detail).  Whites still in a mailbox are
  // caught by the drain counters.
  SimTime local = cl.gvt_report_min(runtimes_);
  local = std::min(local, cl.holding.min_recv_time());
  local = std::min(local, cl.coalescer.min_recv_time());
  gvt_coord_.join(cl.node, r, local);
  cl.my_round = r;
  cl.trace_now(obs::TraceKind::kGvtJoin, r, local);
  // GVT-round cadence is the throttle's control period: frequent enough to
  // react to a storm, coarse enough to smooth over noise.
  cl.throttle.on_round(r);
  if (cl.trace != nullptr) {
    // Decisions land in the trajectory; trace only the new ones.
    const auto& traj = cl.throttle.trajectory();
    for (; cl.traced_decisions < traj.size(); ++cl.traced_decisions) {
      const ThrottleDecision& d = traj[cl.traced_decisions];
      cl.trace_now(obs::TraceKind::kThrottle, d.window,
                   static_cast<std::uint64_t>(d.rollback_fraction * 1e6),
                   static_cast<std::uint32_t>(d.direction + 1));
    }
  }
}

void Kernel::receive(Cluster& cl) {
  if (!channel_.probably_empty(cl.node)) {
    cl.drain_buf.clear();
    channel_.drain(cl.node, cl.drain_buf);
    for (auto& f : cl.drain_buf) {
      // Rounds serialize, so a drained message is at most one epoch away
      // from the receiver's color in either direction.  Each message of a
      // batch is drained individually — a batch of n counts as n in the
      // transient accounting, mirroring the n count_send calls at buffer
      // time.
      PLS_DCHECK(f.epoch + 1 >= cl.my_round && f.epoch <= cl.my_round + 1);
      gvt_coord_.count_drain(cl.node, f.epoch, cl.my_round,
                             f.event.recv_time);
      cl.holding.push(std::move(f));
    }
  }
  // Deliver what the modeled network has made due.
  const std::uint64_t now_ns = steady_now_ns();
  while (!cl.holding.empty() && cl.holding.top().deliver_at_ns <= now_ns) {
    cl.pending.push_back(cl.holding.pop().event);
  }
}

void Kernel::route(Cluster& cl) {
  // Routes everything in cl.pending: local events are inserted (possibly
  // rolling their LP back, which enqueues cancellation antis right here);
  // remote events pay the per-message network overhead and are buffered in
  // the per-destination send coalescer, epoch-tagged and counted for the
  // GVT transient-message accounting *at add time* (the batch they later
  // flush in is invisible to GVT — n buffered messages are n transients).
  // Events move from the send path through here into an LP queue or an
  // InFlight without a copy.  Antis appended while routing join the same
  // pass; `i` re-reads the size, and `ev` is moved out before any append
  // can reallocate.
  for (std::size_t i = 0; i < cl.pending.size(); ++i) {
    Event ev = std::move(cl.pending[i]);
    const LpId target = ev.target;
    const bool positive = ev.sign == Sign::kPositive;
    const std::uint32_t target_node = node_of_[target];
    if (target_node == cl.node) {
      auto res = runtimes_[target].insert(std::move(ev));
      if (positive) ++cl.stats.intra_node_events;
      if (res.rolled_back) {
        if (res.secondary) ++cl.stats.secondary_rollbacks;
        else ++cl.stats.primary_rollbacks;
        cl.stats.events_rolled_back += res.unprocessed_events;
        cl.throttle.note_rollback(res.unprocessed_events);
        for (Event& anti : res.antis) {
          cl.pending.push_back(std::move(anti));
        }
        cl.trace_now(obs::TraceKind::kRollback, res.unprocessed_events,
                     res.secondary ? 1 : 0, target);
      }
      cl.push_sched(runtimes_[target].next_time(), target);
      cl.note_touched(runtimes_, target);
    } else {
      if (cfg_.network.send_overhead_ns > 0) {
        util::busy_spin_ns(cfg_.network.send_overhead_ns);
      }
      if (positive) ++cl.stats.inter_node_messages;
      else ++cl.stats.anti_messages_sent;
      InFlight f;
      f.seq = cl.net_seq++;
      f.epoch = cl.my_round;
      f.event = std::move(ev);
      // Count before buffering: the receive counter must never overtake,
      // and a buffered white must already be on the books so its GVT round
      // cannot conclude until the flush drains.
      gvt_coord_.count_send(cl.node, cl.my_round);
      // deliver_at_ns is stamped at flush time (+latency): the wire is paid
      // when the batch leaves, never earlier.
      cl.coalescer.add(target_node, std::move(f), steady_now_ns(),
                       cfg_.network.latency_ns);
    }
  }
  cl.pending.clear();
}

bool Kernel::execute_burst(Cluster& cl, bool& blocked_by_window) {
  // Batching amortizes the per-poll overhead (mailbox probe, GVT join,
  // fossil check) over several executions.  The window limit is
  // re-evaluated between batches — GVT may advance mid-burst, and a routed
  // straggler can change which LP is lowest-timestamp — so a burst never
  // runs further ahead than a single-batch loop would.
  const std::uint32_t max_batches = std::max(1u, cfg_.max_batches_per_poll);
  std::uint32_t batches = 0;
  LtsfCalendar::Entry top;
  for (; batches < max_batches && cl.clean_top(runtimes_, top); ++batches) {
    const SimTime gvt_now = gvt_.load(std::memory_order_relaxed);
    // Saturating: near end-of-time a plain add wraps, collapsing the window
    // and blocking the final drain (regression-tested).
    if (top.time > saturating_add(gvt_now, cl.throttle.window())) {
      blocked_by_window = true;
      break;
    }
    // The entry is consumed here; push_sched below files the LP's next
    // batch, so the LP holds a live entry again before any GVT report.
    cl.sched.pop();
    cl.slot[top.lp].sched_mark = kEndOfTime;
    const std::uint64_t tb0 = cl.span_start();
    SimTime t = 0;
    const std::size_t batch_size = execute_batch(cl, top.lp, t);
    if (cfg_.event_cost_ns > 0) util::busy_spin_ns(cfg_.event_cost_ns);
    cl.trace_span(obs::TraceKind::kExecBatch, tb0, batch_size, t, top.lp);
    cl.note_touched(runtimes_, top.lp);
    cl.throttle.note_executed(batch_size, t > gvt_now ? t - gvt_now : 0);
    cl.push_sched(runtimes_[top.lp].next_time(), top.lp);
    route(cl);
  }
  if (batches != 0) cl.exec_ticks.fetch_add(batches, std::memory_order_relaxed);
  return batches != 0;
}

std::size_t Kernel::execute_batch(Cluster& cl, LpId lp, SimTime& t) {
  LpRuntime& rt = runtimes_[lp];
  const EventBatch batch = rt.begin_batch(t);
  ClusterContext ctx(t, cfg_.end_time, lp, &rt, &cl.pending, rt.in_replay(t),
                     /*init_mode=*/false);
  rt.behavior()->execute(ctx, batch);
  const std::size_t batch_size = batch.size();
  rt.commit_batch(t, batch_size);
  cl.stats.events_processed += batch_size;
  return batch_size;
}

void Kernel::flush(Cluster& cl) {
  // Burst-end flush: everything routed remotely during this poll — receive-
  // path forwards included — leaves as one batch per destination.  This is
  // the coalescing fabric's primary flush point: it bounds buffering
  // latency to one poll and guarantees the send buffers are empty at the
  // next GVT join (liveness — an unflushed white would otherwise hold its
  // round open forever).
  if (cl.coalescer.buffered() == 0) return;
  const std::uint64_t fns = steady_now_ns();
  const std::size_t flushed =
      cl.coalescer.flush_all(fns, cfg_.network.latency_ns);
  if (flushed != 0 && cl.trace != nullptr) {
    cl.trace->record(obs::TraceKind::kFlush, fns, 0, flushed,
                     cl.coalescer.stats().batches_flushed);
  }
}

void Kernel::publish_gauges(Cluster& cl) const {
  // Mirror the node's counters into the atomic gauges the background
  // sampler reads (relaxed: each gauge is an independent time series and
  // small skew between them is inherent to sampling anyway).
  if (cl.gauges == nullptr) return;
  obs::NodeGauges& g = *cl.gauges;
  g.events_processed.store(cl.stats.events_processed,
                           std::memory_order_relaxed);
  g.events_committed.store(cl.stats.events_committed,
                           std::memory_order_relaxed);
  g.events_rolled_back.store(cl.stats.events_rolled_back,
                             std::memory_order_relaxed);
  g.rollbacks.store(cl.stats.primary_rollbacks + cl.stats.secondary_rollbacks,
                    std::memory_order_relaxed);
  g.window.store(cl.throttle.window(), std::memory_order_relaxed);
  g.live_entries.store(cl.live_now, std::memory_order_relaxed);
  g.holding_events.store(cl.holding.size(), std::memory_order_relaxed);
  g.pool_bytes.store(cl.pool->snapshot().slab_bytes,
                     std::memory_order_relaxed);
  const CoalesceStats& cs = cl.coalescer.stats();
  g.batches_sent.store(cs.batches_flushed, std::memory_order_relaxed);
  g.batch_msgs_sent.store(cs.msgs_flushed, std::memory_order_relaxed);
}

void Kernel::idle(Cluster& cl, bool executed) {
  if (executed) {
    ++cl.stats.exec_polls;
    cl.idle_streak = 0;
    return;
  }
  ++cl.stats.idle_polls;
  if (++cl.idle_streak < kIdleSpinPolls) {
    // Recently busy: stay reactive, just be polite to siblings.
    std::this_thread::yield();
    return;
  }
  // Nothing runnable for a while: actually release the core so the thread
  // that holds work can use it (critical when node threads outnumber
  // cores).  Bound the nap by the next modeled-network delivery deadline
  // so latency stays accurate.
  std::uint64_t nap = kIdleNapNs;
  const std::uint64_t deadline = cl.holding.next_deadline_ns();
  if (deadline != 0) {
    const std::uint64_t now = steady_now_ns();
    nap = deadline > now ? std::min(nap, deadline - now)
                         : std::uint64_t{1000};
  }
  ++cl.stats.idle_sleeps;
  std::this_thread::sleep_for(std::chrono::nanoseconds(nap));
}

void Kernel::controller_poll(std::uint64_t now_ns) {
  // Complete the round in flight, if any.  Join-freeze first, then the
  // white counters must balance (this order is what makes the counter
  // comparison race-free: after every node joined, no epoch round-1
  // message can ever be sent again).
  if (ctrl_started_rounds_ >
      completed_rounds_.load(std::memory_order_relaxed)) {
    const std::uint64_t round = ctrl_started_rounds_;
    if (gvt_coord_.all_joined(round) && gvt_coord_.whites_drained(round)) {
      const SimTime g = gvt_coord_.round_min();
      const SimTime prev = gvt_.load(std::memory_order_relaxed);
#ifndef NDEBUG
      if (g < prev) {
        std::fprintf(stderr,
                     "[gvt-debug] REGRESSION round=%llu g=%llu prev=%llu\n",
                     (unsigned long long)round, (unsigned long long)g,
                     (unsigned long long)prev);
        for (std::uint32_t n = 0; n < cfg_.num_nodes; ++n) {
          std::fprintf(stderr,
                       "[gvt-debug]  node %u joined=%llu report=%llu "
                       "late_white=%llu\n",
                       n, (unsigned long long)gvt_coord_.joined_round_of(n),
                       (unsigned long long)gvt_coord_.report_min_of(n),
                       (unsigned long long)gvt_coord_.late_white_min_of(n));
        }
        std::abort();
      }
#endif
      gvt_.store(std::max(prev, g), std::memory_order_release);
      completed_rounds_.fetch_add(1, std::memory_order_release);
      if (cfg_.obs != nullptr) {
        // Publish the fresh estimate for the metrics sampler's GVT gauge.
        cfg_.obs->set_gvt(std::max(prev, g));
        clusters_[0]->trace_now(obs::TraceKind::kGvtDone, round,
                                std::max(prev, g));
      }
      if (g == kEndOfTime) {
        done_.store(true, std::memory_order_release);
      }
    }
  }
  if (oom_.load(std::memory_order_relaxed)) {
    done_.store(true, std::memory_order_release);
  }
  // Start the next round on the configured cadence — or early, when some
  // node reports that only a GVT advance can unblock its window-throttled
  // work (otherwise a blocked node idles out the whole interval; under
  // tight windows that wall-clock wait, not rollback work, dominates).
  // A small floor keeps a persistently blocked node from degenerating the
  // GVT into a busy loop.
  if (ctrl_started_rounds_ ==
          completed_rounds_.load(std::memory_order_relaxed) &&
      !done_.load(std::memory_order_relaxed)) {
    const std::uint64_t interval_ns = cfg_.gvt_interval_us * 1000;
    std::uint64_t due_ns = interval_ns;
    for (const auto& cl : clusters_) {
      if (cl->window_blocked.load(std::memory_order_relaxed)) {
        due_ns = interval_ns / 16;
        break;
      }
    }
    if (now_ns - ctrl_last_trigger_ns_ >= due_ns) {
      ctrl_last_trigger_ns_ = now_ns;
      ++ctrl_started_rounds_;
      gvt_coord_.start_round(ctrl_started_rounds_);
      clusters_[0]->trace_now(obs::TraceKind::kGvtStart, ctrl_started_rounds_,
                              0);
    }
  }
}

void Kernel::fossil_round(Cluster& cl) {
  // Once per newly completed GVT round.
  const std::uint64_t completed =
      completed_rounds_.load(std::memory_order_acquire);
  if (completed == cl.last_fossil_round) return;
  cl.last_fossil_round = completed;
  const SimTime g = gvt_.load(std::memory_order_acquire);
  const std::uint64_t tf0 = cl.span_start();
  // Every payload and snapshot the pass frees goes back to its owner pool
  // in one batched run.
  mem::ReclaimScope reclaim;
  std::uint64_t committed = 0;
  for (std::size_t i = 0; i < cl.fossil_lps.size();) {
    const LpId lp = cl.fossil_lps[i];
    LpRuntime& rt = runtimes_[lp];
    committed += rt.fossil_collect(g).committed_events;
    cl.note_live(runtimes_, lp);
    if (!rt.fossil_idle()) {
      ++i;
      continue;
    }
    // Swap-erase: the list's order carries no meaning.
    cl.slot[lp].in_fossil = false;
    cl.fossil_lps[i] = cl.fossil_lps.back();
    cl.fossil_lps.pop_back();
  }
  cl.stats.events_committed += committed;
  cl.trace_span(obs::TraceKind::kFossil, tf0, committed, cl.live_now);
  // live_now is maintained incrementally at every queue mutation (see
  // note_live); the pass just refreshed every LP whose count it could
  // change, so it equals the full recomputed sum here.
  if (cfg_.max_live_entries_per_node != 0 &&
      cl.live_now > cfg_.max_live_entries_per_node) {
    oom_.store(true, std::memory_order_relaxed);
  }
}

std::uint64_t Kernel::total_exec_ticks() const noexcept {
  std::uint64_t sum = 0;
  for (const auto& cl : clusters_) {
    sum += cl->exec_ticks.load(std::memory_order_relaxed);
  }
  return sum;
}

void Kernel::watchdog_main() {
  const std::uint64_t timeout_ns = cfg_.watchdog_timeout_ms * 1'000'000ull;
  SimTime last_gvt = gvt_.load(std::memory_order_relaxed);
  std::uint64_t ticks_at_freeze = total_exec_ticks();
  std::uint64_t last_change_ns = steady_now_ns();
  std::unique_lock<std::mutex> lock(watchdog_mu_);
  while (!done_.load(std::memory_order_acquire) &&
         !stalled_.load(std::memory_order_acquire)) {
    if (watchdog_cv_.wait_for(lock, std::chrono::milliseconds(10),
                              [this] { return watchdog_stop_; })) {
      break;
    }
    const SimTime g = gvt_.load(std::memory_order_relaxed);
    const std::uint64_t now = steady_now_ns();
    if (g != last_gvt) {
      last_gvt = g;
      ticks_at_freeze = total_exec_ticks();
      last_change_ns = now;
    } else if (now - last_change_ns >= timeout_ns) {
      // GVT frozen for the whole window.  A healthy run commits every
      // round (the controller starts one each gvt_interval_us), so this
      // catches both true deadlocks (nothing executing either) and
      // rollback livelocks (execution churning with nothing committing —
      // memory then grows without bound).  Node threads poll the flag
      // and exit; run() dumps diagnostics from a single thread.
      stall_ticks_wasted_ = total_exec_ticks() - ticks_at_freeze;
      stalled_.store(true, std::memory_order_release);
      break;
    }
  }
}

void Kernel::dump_stall_diagnostics() const {
  if (stall_ticks_wasted_ == 0) {
    std::fprintf(stderr,
                 "\n[warped] WATCHDOG: DEADLOCK — no GVT advance and no "
                 "execution for %llu ms, aborting run\n",
                 static_cast<unsigned long long>(cfg_.watchdog_timeout_ms));
  } else {
    std::fprintf(stderr,
                 "\n[warped] WATCHDOG: LIVELOCK — %llu batches executed "
                 "but GVT frozen for %llu ms (rollback thrash?), aborting "
                 "run\n",
                 static_cast<unsigned long long>(stall_ticks_wasted_),
                 static_cast<unsigned long long>(cfg_.watchdog_timeout_ms));
  }
  std::fprintf(stderr,
               "[warped] gvt=%llu rounds started=%llu completed=%llu\n",
               static_cast<unsigned long long>(
                   gvt_.load(std::memory_order_relaxed)),
               static_cast<unsigned long long>(ctrl_started_rounds_),
               static_cast<unsigned long long>(
                   completed_rounds_.load(std::memory_order_relaxed)));
  for (std::uint32_t n = 0; n < cfg_.num_nodes; ++n) {
    const Cluster& cl = *clusters_[n];
    std::fprintf(
        stderr,
        "[warped]   node %u: joined_round=%llu report_min=%llu "
        "sent=%llu/%llu recvd=%llu/%llu processed=%llu rollbacks=%llu "
        "pending=%zu holding=%zu\n",
        n,
        static_cast<unsigned long long>(gvt_coord_.joined_round_of(n)),
        static_cast<unsigned long long>(gvt_coord_.report_min_of(n)),
        static_cast<unsigned long long>(gvt_coord_.sent_of(n, 0)),
        static_cast<unsigned long long>(gvt_coord_.sent_of(n, 1)),
        static_cast<unsigned long long>(gvt_coord_.recvd_of(n, 0)),
        static_cast<unsigned long long>(gvt_coord_.recvd_of(n, 1)),
        static_cast<unsigned long long>(cl.stats.events_processed),
        static_cast<unsigned long long>(cl.stats.primary_rollbacks +
                                        cl.stats.secondary_rollbacks),
        cl.pending.size(), cl.holding.size());
  }
  // The LPs holding the globally smallest pending work are where a stall
  // lives; the heaviest rollback victims are why it got there.
  LpId min_lp = kInvalidLp;
  SimTime min_t = kEndOfTime;
  LpId worst_lp = kInvalidLp;
  std::uint64_t worst_rb = 0;
  for (const auto& rt : runtimes_) {
    if (rt.next_time() < min_t) {
      min_t = rt.next_time();
      min_lp = rt.id();
    }
    if (rt.rollbacks() >= worst_rb) {
      worst_rb = rt.rollbacks();
      worst_lp = rt.id();
    }
  }
  if (min_lp != kInvalidLp) {
    std::fprintf(stderr,
                 "[warped]   earliest pending work: LP %u at t=%llu "
                 "(node %u)\n",
                 min_lp, static_cast<unsigned long long>(min_t),
                 node_of_[min_lp]);
  }
  if (worst_lp != kInvalidLp) {
    std::fprintf(stderr,
                 "[warped]   most rolled-back LP: %u (%llu rollbacks, "
                 "%llu events undone, node %u)\n",
                 worst_lp, static_cast<unsigned long long>(worst_rb),
                 static_cast<unsigned long long>(
                     runtimes_[worst_lp].events_rolled_back()),
                 node_of_[worst_lp]);
  }
  // With tracing on, the ring tails show what each node was doing when it
  // wedged — usually more telling than the counters above.  Safe to read
  // here: every producer thread has exited before run() dumps.
  constexpr std::size_t kTailEvents = 16;
  for (std::uint32_t n = 0; n < cfg_.num_nodes; ++n) {
    const obs::TraceRing* ring = clusters_[n]->trace;
    if (ring == nullptr || ring->recorded() == 0) continue;
    std::fprintf(stderr,
                 "[warped]   node %u trace tail (%llu recorded, %llu "
                 "dropped):\n",
                 n, static_cast<unsigned long long>(ring->recorded()),
                 static_cast<unsigned long long>(ring->dropped()));
    const std::uint64_t t0 = cfg_.obs->t0_ns();
    for (const obs::TraceEvent& ev : ring->tail(kTailEvents)) {
      std::fprintf(stderr,
                   "[warped]     +%.6fs %-11s lp=%d a=%llu b=%llu"
                   " dur=%.3fus\n",
                   static_cast<double>(ev.ts_ns - t0) / 1e9,
                   obs::to_string(ev.kind),
                   ev.lp == ~std::uint32_t{0} ? -1
                                              : static_cast<int>(ev.lp),
                   static_cast<unsigned long long>(ev.a),
                   static_cast<unsigned long long>(ev.b),
                   static_cast<double>(ev.dur_ns) / 1e3);
    }
  }
}

RunStats Kernel::run() {
  PLS_CHECK_MSG(!ran_, "Kernel::run() is single-use");
  ran_ = true;

  util::WallTimer timer;
  init_all_lps();

  std::thread watchdog;
  if (cfg_.watchdog_timeout_ms > 0) {
    watchdog = std::thread([this] { watchdog_main(); });
  }

  if (cfg_.num_nodes == 1) {
    node_main(0);
  } else {
    std::vector<std::thread> threads;
    threads.reserve(cfg_.num_nodes);
    for (std::uint32_t n = 0; n < cfg_.num_nodes; ++n) {
      threads.emplace_back([this, n] { node_main(n); });
    }
    for (auto& t : threads) t.join();
  }
  const double wall_seconds = timer.elapsed_seconds();
  // Wake the watchdog at once, even on a stalled/OOM exit.
  done_.store(true, std::memory_order_release);
  {
    const std::lock_guard<std::mutex> lock(watchdog_mu_);
    watchdog_stop_ = true;
  }
  watchdog_cv_.notify_all();
  if (watchdog.joinable()) watchdog.join();

  if (stalled_.load(std::memory_order_acquire)) dump_stall_diagnostics();

  // A GVT == end-of-time round proves nothing *effectful* is pending, but
  // an LP can still hold suppressed coast-forward batches (its state is a
  // restored snapshot behind history whose outputs were never cancelled):
  // done_ may be observed before the replay finished re-executing.  Drain
  // them now, single-threaded, so final_states is the committed state.
  // Skipped on abnormal exits, whose states are not meaningful anyway.
  if (!stalled_.load(std::memory_order_acquire) &&
      !oom_.load(std::memory_order_acquire)) {
    // Send buffers were flushed when each node_main exited, so the channel
    // drain below sees everything still in flight.
    for (std::uint32_t n = 0; n < cfg_.num_nodes; ++n) {
      Cluster& cl = *clusters_[n];
      PLS_CHECK_MSG(cl.coalescer.buffered() == 0,
                    "send buffer left unflushed after node exit");
      cl.drain_buf.clear();
      channel_.drain(n, cl.drain_buf);
      for (auto& f : cl.drain_buf) cl.holding.push(std::move(f));
      while (!cl.holding.empty()) {
        // Only an event beyond the horizon may still be in flight once GVT
        // hit end-of-time; it can never execute, so drop it.
        const SimTime t = cl.holding.pop().event.recv_time;
        PLS_CHECK_MSG(t == kEndOfTime,
                      "event at " << t
                                  << " still in flight after termination "
                                     "(unsound GVT)");
      }
    }
    // The burst's execute step runs each batch; a replay batch is muted, so
    // the owner's (empty) routing queue must stay empty.
    for (LpId lp = 0; lp < runtimes_.size(); ++lp) {
      LpRuntime& rt = runtimes_[lp];
      Cluster& owner = *clusters_[node_of_[lp]];
      while (rt.has_unprocessed()) {
        SimTime t = rt.next_time();
        PLS_CHECK_MSG(rt.in_replay(t),
                      "LP " << lp << " still holds an effectful event at "
                            << t << " after termination (unsound GVT)");
        execute_batch(owner, lp, t);
        PLS_CHECK_MSG(owner.pending.empty(),
                      "suppressed replay produced a send");
      }
    }
  }

  RunStats out;
  out.num_nodes = cfg_.num_nodes;
  out.wall_seconds = wall_seconds;
  out.final_gvt = gvt_.load(std::memory_order_acquire);
  out.gvt_cycles = completed_rounds_.load(std::memory_order_acquire);
  out.out_of_memory = oom_.load(std::memory_order_acquire);
  out.stalled = stalled_.load(std::memory_order_acquire);
  out.per_node.resize(cfg_.num_nodes);
  out.throttle.reserve(cfg_.num_nodes);
  for (std::uint32_t n = 0; n < cfg_.num_nodes; ++n) {
    Cluster& cl = *clusters_[n];
    // Commit whatever the last fossil pass left behind.
    for (LpId lp : cl.own_lps) {
      cl.stats.events_committed += runtimes_[lp].finalize();
    }
    const ThrottleSummary ts = cl.throttle.summary();
    cl.stats.throttle_shrinks = ts.shrinks;
    cl.stats.throttle_grows = ts.grows;
    const CoalesceStats cs = cl.coalescer.stats();
    cl.stats.batches_sent = cs.batches_flushed;
    cl.stats.batch_msgs_sent = cs.msgs_flushed;
    cl.stats.max_batch_msgs = cs.max_batch_msgs;
    const mem::PoolStats ps = cl.pool->snapshot();
    cl.stats.pool_slab_bytes = ps.slab_bytes;
    cl.stats.pool_blocks_recycled = ps.recycled;
    cl.stats.pool_heap_fallbacks = ps.heap_fallbacks;
    out.per_node[n] = cl.stats;
    out.totals.merge(cl.stats);
    out.throttle.push_back(ThrottleTrace{ts, cl.throttle.trajectory()});
  }
  out.final_states.reserve(runtimes_.size());
  out.per_lp.reserve(runtimes_.size());
  for (const auto& rt : runtimes_) {
    out.final_states.push_back(rt.state());
    LpStats ls;
    ls.events_processed = rt.events_processed();
    ls.events_rolled_back = rt.events_rolled_back();
    ls.events_committed = rt.events_committed();
    ls.sends_committed = rt.sends_committed();
    ls.lane_work_committed = rt.lane_work_committed();
    ls.rollbacks = rt.rollbacks();
    ls.max_rollback_depth = rt.max_rollback_depth();
    out.per_lp.push_back(ls);
  }
  // The node threads are gone, but what they freed stays resident in
  // glibc's per-thread arenas, which later runs' threads take over in no
  // fixed order: a process that runs kernel after kernel would ratchet up
  // towards its largest runs' footprint.  Hand the free pages back; what
  // this kernel still holds is freed with it, for the next run to reuse.
#ifdef __GLIBC__
  malloc_trim(0);
#endif
  return out;
}

}  // namespace pls::warped
