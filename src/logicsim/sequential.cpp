#include "logicsim/sequential.hpp"

#include <algorithm>
#include <bit>
#include <queue>

#include "mem/pool.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"

namespace pls::logicsim {
namespace {

using warped::Event;
using warped::kEndOfTime;
using warped::LpId;
using warped::LpState;
using warped::SimTime;

/// Per-LP event list: a sorted vector whose executed prefix [0, head)
/// compacts away at LpRuntime's threshold (no fossil collection here —
/// everything commits immediately).
struct SeqLp {
  std::vector<Event> queue;
  std::size_t head = 0;
  std::uint64_t next_id = 1;

  bool has_pending() const noexcept { return head < queue.size(); }
  SimTime next_time() const noexcept {
    return has_pending() ? queue[head].recv_time : kEndOfTime;
  }
  void insert(Event&& ev) {
    // In-order arrivals, the common case (a gate's inputs arrive in time
    // order), append in O(1).
    if (queue.empty() || queue.back() < ev) {
      queue.push_back(std::move(ev));
      return;
    }
    auto pos = std::lower_bound(
        queue.begin() + static_cast<std::ptrdiff_t>(head), queue.end(), ev);
    queue.insert(pos, std::move(ev));
  }
  /// Amortized O(1): the live range moves once per >= equal run of
  /// executed events.
  void compact() {
    if (head >= 64 && head * 2 >= queue.size()) {
      queue.erase(queue.begin(),
                  queue.begin() + static_cast<std::ptrdiff_t>(head));
      head = 0;
    }
  }
};

struct SchedEntry {
  SimTime time;
  LpId lp;
  friend bool operator>(const SchedEntry& a, const SchedEntry& b) noexcept {
    if (a.time != b.time) return a.time > b.time;
    return a.lp > b.lp;
  }
};

/// Buffers the executing LP's sends in `sent`: the batch it executes is a
/// view into a queue that delivering them could grow, so delivery waits
/// until execute() returns.
class SeqContext final : public warped::Context {
 public:
  SeqContext(SimTime end, std::vector<SeqLp>* lps,
             std::vector<LpState>* states, std::vector<Event>* sent,
             std::vector<std::uint64_t>* sends)
      : end_(end), lps_(lps), states_(states), sent_(sent), sends_(sends) {}

  void set_current(SimTime now, LpId self, bool init_mode) {
    now_ = now;
    self_ = self;
    init_mode_ = init_mode;
  }

  SimTime now() const override { return now_; }
  SimTime end_time() const override { return end_; }
  LpId self() const override { return self_; }
  LpState& state() override { return (*states_)[self_]; }

  void send(LpId target, SimTime recv_time, std::uint32_t port,
            std::uint64_t value, std::uint64_t mask) override {
    PLS_CHECK_MSG(init_mode_ ? recv_time >= now_ : recv_time > now_,
                  "sequential send not after now");
    Event& ev = sent_->emplace_back();
    ev.recv_time = recv_time;
    ev.send_time = now_;
    ev.target = target;
    ev.sender = self_;
    ev.port = port;
    ev.value = value;
    ev.mask = mask;
    ev.id = (*lps_)[self_].next_id++;
    // Self-sends are scheduling ticks (DFF clocks, stimulus timers), not
    // net traffic — counting them would mark every clocked LP "hot"
    // regardless of whether its output ever toggles.  Batched events weigh
    // popcount(mask) lane transitions, matching the Time Warp kernel's
    // committed-send accounting (scalar mask = 1 keeps the old count).
    if (target != self_) (*sends_)[self_] += std::popcount(mask);
  }

  void send_wide(LpId target, SimTime recv_time, std::uint32_t port,
                 const std::uint64_t* values, const std::uint64_t* masks,
                 std::uint32_t k) override {
    if (k == 1) {
      send(target, recv_time, port, values[0], masks[0]);
      return;
    }
    PLS_CHECK_MSG(init_mode_ ? recv_time >= now_ : recv_time > now_,
                  "sequential send not after now");
    Event& ev = sent_->emplace_back();
    ev.recv_time = recv_time;
    ev.send_time = now_;
    ev.target = target;
    ev.sender = self_;
    ev.port = port;
    ev.widen(k);
    for (std::uint32_t w = 0; w < k; ++w) {
      ev.set_value_word(w, values[w]);
      ev.set_mask_word(w, masks[w]);
    }
    ev.id = (*lps_)[self_].next_id++;
    if (target != self_) {
      for (std::uint32_t w = 0; w < k; ++w) {
        (*sends_)[self_] += std::popcount(masks[w]);
      }
    }
  }

 private:
  SimTime now_ = 0;
  SimTime end_;
  LpId self_ = 0;
  bool init_mode_ = false;
  std::vector<SeqLp>* lps_;
  std::vector<LpState>* states_;
  std::vector<Event>* sent_;
  std::vector<std::uint64_t>* sends_;
};

}  // namespace

SeqStats simulate_sequential(const std::vector<warped::LogicalProcess*>& lps,
                             warped::SimTime end_time,
                             std::uint64_t event_cost_ns) {
  PLS_CHECK(!lps.empty());
  util::WallTimer timer;

  SeqStats out;
  out.per_lp_events.assign(lps.size(), 0);
  out.per_lp_lane_work.assign(lps.size(), 0);
  out.per_lp_sends.assign(lps.size(), 0);

  // Wide payloads and state words come from this run's own arena, which
  // must outlive every event and state allocated from it: the final
  // states are copied out through the caller's allocator before the block
  // below closes, and the pool dies after it.
  mem::Pool* const caller_pool = mem::current_pool();
  mem::Pool pool;
  {
    mem::PoolScope pool_scope(&pool);
    std::vector<LpState> states;
    std::vector<SeqLp> queues(lps.size());
    std::vector<Event> sent;
    std::priority_queue<SchedEntry, std::vector<SchedEntry>, std::greater<>>
        sched;
    // Every LP with pending events holds a heap entry at its next_time():
    // a delivery pushes one only when it lowers that time, and a batch
    // pushes the LP's next remaining time.  Entries that no longer match
    // next_time() are stale and skipped.
    const auto deliver = [&] {
      for (Event& ev : sent) {
        SeqLp& q = queues[ev.target];
        const SimTime t = ev.recv_time;
        const LpId target = ev.target;
        const bool earlier = t < q.next_time();
        q.insert(std::move(ev));
        if (earlier) sched.push(SchedEntry{t, target});
      }
      sent.clear();
    };

    SeqContext ctx(end_time, &queues, &states, &sent, &out.per_lp_sends);
    states.reserve(lps.size());
    for (LpId i = 0; i < lps.size(); ++i) {
      states.push_back(lps[i]->initial_state());
    }
    for (LpId i = 0; i < lps.size(); ++i) {
      ctx.set_current(0, i, /*init_mode=*/true);
      lps[i]->init(ctx);
      deliver();
    }

    while (!sched.empty()) {
      const SchedEntry top = sched.top();
      sched.pop();
      SeqLp& q = queues[top.lp];
      if (q.next_time() != top.time) continue;  // stale entry

      const SimTime t = top.time;
      std::size_t last = q.head;
      std::uint64_t lane_work = 0;
      while (last < q.queue.size() && q.queue[last].recv_time == t) {
        lane_work += q.queue[last].mask_popcount();
        ++last;
      }
      const warped::EventBatch batch(q.queue.data() + q.head, last - q.head);
      ctx.set_current(t, top.lp, /*init_mode=*/false);
      lps[top.lp]->execute(ctx, batch);
      if (event_cost_ns > 0) util::busy_spin_ns(event_cost_ns);

      out.events_processed += batch.size();
      out.per_lp_events[top.lp] += batch.size();
      out.per_lp_lane_work[top.lp] += lane_work;
      q.head = last;
      q.compact();
      if (q.has_pending()) sched.push(SchedEntry{q.next_time(), top.lp});
      deliver();
    }
    const mem::PoolScope copy_out(caller_pool);
    out.final_states.assign(states.begin(), states.end());
  }
  out.wall_seconds = timer.elapsed_seconds();
  return out;
}

}  // namespace pls::logicsim
