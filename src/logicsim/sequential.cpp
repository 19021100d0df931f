#include "logicsim/sequential.hpp"

#include <algorithm>
#include <array>
#include <bit>

#include "mem/pool.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"

namespace pls::logicsim {
namespace {

using warped::Event;
using warped::LpId;
using warped::LpState;
using warped::SimTime;

/// Ring width in ticks.  It covers every delay of the netlist model (gate
/// and DFF 1, clock 10, stimulus 20), so the overflow heap only sees
/// generic models' long sends.  No wider: slot vectors keep their
/// capacity, so every slot costs resident memory.
constexpr SimTime kSlots = 32;

/// Pending events by receive time.  Ring slot t % kSlots holds the events
/// due at tick t, for the kSlots ticks from now() on; an event due later
/// waits in a recv_time min-heap and moves into the ring when the window
/// reaches its tick.
class Calendar {
 public:
  SimTime now() const noexcept { return now_; }
  std::vector<Event>& current() noexcept { return ring_[now_ % kSlots]; }

  /// `ev` is due at or after now(), and strictly after it once now()'s
  /// slot is executing.
  void push(Event&& ev) {
    if (ev.recv_time - now_ < kSlots) {
      ring_[ev.recv_time % kSlots].push_back(std::move(ev));
      ++in_ring_;
    } else {
      later_.push_back(std::move(ev));
      std::push_heap(later_.begin(), later_.end(), due_later);
    }
  }

  /// Retires the current tick, freeing its events, and moves to the next
  /// tick that holds any.  False when no events remain.
  bool advance() {
    in_ring_ -= current().size();
    current().clear();
    if (in_ring_ > 0) {
      // Every heap event is due at least kSlots past the old tick, so the
      // next non-empty slot is the earliest pending tick.
      do {
        ++now_;
      } while (ring_[now_ % kSlots].empty());
    } else if (!later_.empty()) {
      now_ = later_.front().recv_time;  // skip a gap with no events
    } else {
      return false;
    }
    while (!later_.empty() && later_.front().recv_time - now_ < kSlots) {
      std::pop_heap(later_.begin(), later_.end(), due_later);
      ring_[later_.back().recv_time % kSlots].push_back(
          std::move(later_.back()));
      later_.pop_back();
      ++in_ring_;
    }
    return true;
  }

 private:
  static bool due_later(const Event& a, const Event& b) noexcept {
    return a.recv_time > b.recv_time;
  }

  std::array<std::vector<Event>, kSlots> ring_;
  std::vector<Event> later_;
  std::size_t in_ring_ = 0;
  SimTime now_ = 0;
};

/// One tick's batches in execution order: ascending target, then each
/// LP's events in queue order.  (sender, id) is unique, so the order is
/// total and a batch is exactly what the kernel's sorted per-LP queue
/// would hold.
bool batch_order(const Event& a, const Event& b) noexcept {
  return a.target != b.target ? a.target < b.target : a < b;
}

/// Delivers each send straight into the calendar.  A send is due after
/// now(), so it never lands in the slot being executed.
class SeqContext final : public warped::Context {
 public:
  SeqContext(SimTime end, Calendar* calendar, std::vector<LpState>* states,
             std::vector<std::uint64_t>* sends)
      : end_(end),
        calendar_(calendar),
        states_(states),
        sends_(sends),
        next_id_(states->size(), 1) {}

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
    Event ev = make_event(target, recv_time, port);
    ev.value = value;
    ev.mask = mask;
    // Self-sends are scheduling ticks (DFF clocks, stimulus timers), not
    // net traffic — counting them would mark every clocked LP "hot"
    // regardless of whether its output ever toggles.  Batched events weigh
    // popcount(mask) lane transitions, matching the Time Warp kernel's
    // committed-send accounting (scalar mask = 1 keeps the old count).
    if (target != self_) (*sends_)[self_] += std::popcount(mask);
    calendar_->push(std::move(ev));
  }

  void send_wide(LpId target, SimTime recv_time, std::uint32_t port,
                 const std::uint64_t* values, const std::uint64_t* masks,
                 std::uint32_t k) override {
    if (k == 1) {
      send(target, recv_time, port, values[0], masks[0]);
      return;
    }
    Event ev = make_event(target, recv_time, port);
    ev.widen(k);
    for (std::uint32_t w = 0; w < k; ++w) {
      ev.set_value_word(w, values[w]);
      ev.set_mask_word(w, masks[w]);
    }
    if (target != self_) {
      for (std::uint32_t w = 0; w < k; ++w) {
        (*sends_)[self_] += std::popcount(masks[w]);
      }
    }
    calendar_->push(std::move(ev));
  }

 private:
  Event make_event(LpId target, SimTime recv_time, std::uint32_t port) {
    PLS_CHECK_MSG(init_mode_ ? recv_time >= now_ : recv_time > now_,
                  "sequential send not after now");
    Event ev;
    ev.recv_time = recv_time;
    ev.send_time = now_;
    ev.target = target;
    ev.sender = self_;
    ev.port = port;
    ev.id = next_id_[self_]++;
    return ev;
  }

  SimTime now_ = 0;
  SimTime end_;
  LpId self_ = 0;
  bool init_mode_ = false;
  Calendar* calendar_;
  std::vector<LpState>* states_;
  std::vector<std::uint64_t>* sends_;
  std::vector<std::uint64_t> next_id_;
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
    states.reserve(lps.size());
    for (const warped::LogicalProcess* lp : lps) {
      states.push_back(lp->initial_state());
    }
    Calendar calendar;
    SeqContext ctx(end_time, &calendar, &states, &out.per_lp_sends);
    // Init sends may be due at time 0; tick 0 runs them after every init.
    for (LpId i = 0; i < lps.size(); ++i) {
      ctx.set_current(0, i, /*init_mode=*/true);
      lps[i]->init(ctx);
    }

    do {
      std::vector<Event>& slot = calendar.current();
      std::sort(slot.begin(), slot.end(), batch_order);
      for (std::size_t first = 0; first < slot.size();) {
        const LpId lp = slot[first].target;
        std::size_t last = first;
        std::uint64_t lane_work = 0;
        for (; last < slot.size() && slot[last].target == lp; ++last) {
          lane_work += slot[last].mask_popcount();
        }
        const warped::EventBatch batch(slot.data() + first, last - first);
        ctx.set_current(calendar.now(), lp, /*init_mode=*/false);
        lps[lp]->execute(ctx, batch);
        if (event_cost_ns > 0) util::busy_spin_ns(event_cost_ns);

        out.events_processed += batch.size();
        out.per_lp_events[lp] += batch.size();
        out.per_lp_lane_work[lp] += lane_work;
        first = last;
      }
    } while (calendar.advance());
    const mem::PoolScope copy_out(caller_pool);
    out.final_states.assign(states.begin(), states.end());
  }
  out.wall_seconds = timer.elapsed_seconds();
  return out;
}

}  // namespace pls::logicsim
