#include "warped/lp_runtime.hpp"

#include <algorithm>

#include "mem/pool.hpp"
#include "util/check.hpp"

namespace pls::warped {

LpRuntime::LpRuntime(LpId id, LogicalProcess* behavior,
                     std::uint32_t state_period)
    : id_(id), state_period_(state_period), behavior_(behavior) {
  PLS_CHECK_MSG(state_period >= 1, "state saving period must be >= 1");
}

void LpRuntime::install_initial_state(const LpState& s) {
  PLS_CHECK_MSG(!processed_any_ && snapshots_.empty(),
                "initial state must be installed before execution");
  initial_state_ = s;
  state_ = s;
}

std::size_t LpRuntime::first_at_or_after(SimTime t) const {
  // Compare on receive time only: rollback/fossil boundaries are pure
  // times, and all full-ordering tie fields share recv_time.  Index is
  // relative to the head cursor (live range only — the retired prefix is
  // committed history no boundary can reach).
  auto begin = queue_.begin() + static_cast<std::ptrdiff_t>(head_);
  auto it = std::lower_bound(
      begin, queue_.end(), t,
      [](const Event& e, SimTime time) { return e.recv_time < time; });
  return static_cast<std::size_t>(it - begin);
}

void LpRuntime::maybe_compact() {
  // Amortized O(1): compaction moves the live range once the retired
  // prefix is at least as long, so every moved event pays for a dropped
  // one, and retired entries never outnumber live ones afterwards.
  if (head_ != 0 && head_ * 2 >= queue_.size()) {
    queue_.erase(queue_.begin(),
                 queue_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
}

void LpRuntime::rollback(SimTime to_time, InsertResult& res) {
  PLS_CHECK_MSG(to_time > 0,
                "rollback to time 0 would cancel init-phase sends");
  res.rolled_back = true;
  res.rollback_time = to_time;

  // Discarded snapshots release their pooled words as one batched run.
  mem::ReclaimScope reclaim;

  // 1. Restore the latest snapshot strictly before to_time.  With periodic
  // state saving the snapshot may be several batches back; the batches in
  // (snapshot, to_time) stay processed-pending and will be *replayed* with
  // sends suppressed (their original outputs survive step 3).
  auto snap = std::lower_bound(
      snapshots_.begin(), snapshots_.end(), to_time,
      [](const Snapshot& s, SimTime time) { return s.time < time; });
  std::size_t new_processed = 0;
  if (snap == snapshots_.begin()) {
    // Once anything committed, a fossil pass has retained a base snapshot
    // at or below GVT, and no legal rollback targets below GVT — so
    // falling back to the initial state here would silently re-derive
    // history whose inputs were already fossil-erased (the signature of a
    // GVT-safety violation).
    PLS_CHECK_MSG(events_committed_ == 0,
                  "rollback past the fossil base (LP " << id_ << " to time "
                  << to_time << " with " << events_committed_
                  << " events committed): GVT safety violated");
    state_ = initial_state_;
    last_processed_ = 0;
    processed_any_ = false;
    new_processed = 0;
  } else {
    const Snapshot& base = *std::prev(snap);
    state_ = base.state;
    last_processed_ = base.time;
    processed_any_ = true;
    new_processed = first_at_or_after(base.time + 1);
  }
  snapshots_.erase(snap, snapshots_.end());
  batches_since_snapshot_ = 0;

  // 2. Un-process everything after the restored snapshot, taking its
  // lane transitions back out of the work count (a replay adds them
  // again).
  PLS_CHECK(new_processed <= processed_count_);
  const std::uint64_t undone = processed_count_ - new_processed;
  for (std::size_t i = new_processed; i < processed_count_; ++i) {
    lane_work_committed_ -= queue_[head_ + i].mask_popcount();
  }
  res.unprocessed_events += undone;
  events_rolled_back_ += undone;
  ++rollbacks_;
  max_rollback_depth_ = std::max(max_rollback_depth_, undone);
  processed_count_ = new_processed;

  // 3. Aggressive cancellation: anti-messages for every output sent at or
  // after to_time.  Outputs in (snapshot, to_time) remain valid — that is
  // exactly why their batches replay muted.
  auto out = std::lower_bound(
      output_queue_.begin(), output_queue_.end(), to_time,
      [](const OutputRecord& o, SimTime time) { return o.send_time < time; });
  for (auto it = out; it != output_queue_.end(); ++it) {
    Event anti;
    anti.recv_time = it->recv_time;
    anti.send_time = it->send_time;
    anti.target = it->target;
    anti.sender = id_;
    anti.id = it->id;
    anti.sign = Sign::kNegative;
    res.antis.push_back(std::move(anti));
    sends_committed_ -= it->transitions;
  }
  output_queue_.erase(out, output_queue_.end());

  replay_until_ = to_time;
}

LpRuntime::InsertResult LpRuntime::insert(Event ev) {
  PLS_CHECK(ev.target == id_);
  InsertResult res;

  if (ev.sign == Sign::kNegative) {
    // Annihilate the positive twin.
    const std::size_t from = first_at_or_after(ev.recv_time);
    for (std::size_t i = from; head_ + i < queue_.size(); ++i) {
      const Event& cand = queue_[head_ + i];
      if (cand.recv_time != ev.recv_time) break;
      if (cand.sign == Sign::kPositive && cand.matches(ev)) {
        if (i < processed_count_ || ev.recv_time < replay_until_) {
          // The twin's effects are visible (executed, or baked into
          // still-valid outputs of the replay window): secondary rollback
          // to its time, then annihilate from the pending suffix.
          res.secondary = true;
          rollback(ev.recv_time, res);
        }
        const std::size_t j = first_at_or_after(ev.recv_time);
        for (std::size_t p = j; head_ + p < queue_.size(); ++p) {
          if (queue_[head_ + p].recv_time != ev.recv_time) break;
          if (queue_[head_ + p].matches(ev)) {
            queue_.erase(queue_.begin() +
                         static_cast<std::ptrdiff_t>(head_ + p));
            return res;
          }
        }
        PLS_CHECK_MSG(false, "positive twin vanished during annihilation");
      }
    }
    // Every (sender, target) path is FIFO — the sender's local routing
    // queue, or its flush-ordered batches through the receiver's holding
    // heap — so an anti never overtakes its positive twin.
    PLS_CHECK_MSG(false, "LP " << id_ << " got an anti-message from LP "
                               << ev.sender << " (id " << ev.id << ", t="
                               << ev.recv_time << ") with no positive twin");
  }

  // Straggler? Any event at or before the last processed batch — or below
  // the replay boundary, where outputs already reflect a history without
  // this event — forces a rollback.  Equal time counts: that batch is
  // complete and must re-execute including the newcomer.
  if ((processed_any_ && ev.recv_time <= last_processed_) ||
      ev.recv_time < replay_until_) {
    rollback(ev.recv_time, res);
  }

  // Fast path: events arriving in queue order append in O(1).  This is
  // the steady state of the committed path (a gate's inputs arrive in
  // time order), and it skips the lower_bound entirely.
  if (queue_.empty() || queue_.back() < ev) {
    queue_.push_back(std::move(ev));
    return res;
  }
  const std::size_t at = head_ + [&] {
    auto begin = queue_.begin() + static_cast<std::ptrdiff_t>(head_);
    return static_cast<std::size_t>(
        std::lower_bound(begin, queue_.end(), ev) - begin);
  }();
  PLS_CHECK_MSG(at - head_ >= processed_count_,
                "event insertion inside the processed prefix after rollback");
  queue_.insert(queue_.begin() + static_cast<std::ptrdiff_t>(at),
                std::move(ev));
  return res;
}

EventBatch LpRuntime::begin_batch(SimTime& batch_time) const {
  PLS_CHECK_MSG(has_unprocessed(), "begin_batch with empty pending queue");
  const std::size_t first = head_ + processed_count_;
  const SimTime t = queue_[first].recv_time;
  std::size_t last = first;
  while (last + 1 < queue_.size() && queue_[last + 1].recv_time == t) {
    ++last;
  }
  batch_time = t;
  return {queue_.data() + first, last - first + 1};
}

void LpRuntime::commit_batch(SimTime batch_time, std::size_t batch_size) {
  PLS_CHECK(batch_size > 0);
  PLS_CHECK(head_ + processed_count_ + batch_size <= queue_.size());
  PLS_CHECK_MSG(!processed_any_ || batch_time > last_processed_,
                "batches must commit in increasing time order");
  // Lane-aware work count: the batch's incoming lane transitions (a
  // rollback that un-processes the batch takes them back).
  const std::size_t first = head_ + processed_count_;
  for (std::size_t i = first; i < first + batch_size; ++i) {
    lane_work_committed_ += queue_[i].mask_popcount();
  }
  processed_count_ += batch_size;
  last_processed_ = batch_time;
  processed_any_ = true;
  events_processed_ += batch_size;
  if (++batches_since_snapshot_ >= state_period_) {
    snapshots_.push_back(Snapshot{batch_time, state_});
    batches_since_snapshot_ = 0;
  }
}

void LpRuntime::record_output(const Event& ev) {
  PLS_CHECK(ev.sign == Sign::kPositive);
  PLS_CHECK_MSG(output_queue_.empty() ||
                    output_queue_.back().send_time <= ev.send_time,
                "output queue must grow in send-time order");
  // Transition-weighted traffic count: a batched event carries popcount
  // lane transitions over its mask words; scalar events keep mask = 1.
  // Self-sends are scheduling ticks and weigh nothing (mirroring
  // SeqStats::per_lp_sends).
  const auto transitions = static_cast<std::uint32_t>(
      ev.target != ev.sender ? ev.mask_popcount() : 0);
  sends_committed_ += transitions;
  output_queue_.push_back(
      OutputRecord{ev.send_time, ev.recv_time, ev.id, ev.target, transitions});
}

LpRuntime::FossilResult LpRuntime::fossil_collect(SimTime gvt) {
  FossilResult res;
  if (gvt == 0) return res;

  // The newest snapshot strictly below GVT is the restore base for every
  // reachable rollback (targets are always >= GVT).  Events at or below
  // the base's time can never be replayed again: commit and discard them.
  // Without any snapshot below GVT the base is the initial state and
  // nothing can be discarded yet.  Their work was counted when they
  // executed, so this only moves cursors and frees memory.
  auto snap = std::lower_bound(
      snapshots_.begin(), snapshots_.end(), gvt,
      [](const Snapshot& s, SimTime time) { return s.time < time; });
  if (snap != snapshots_.begin()) {
    const Snapshot& base = *std::prev(snap);
    const std::size_t cut = first_at_or_after(base.time + 1);
    PLS_CHECK_MSG(cut <= processed_count_,
                  "fossil cut crosses unprocessed events (GVT too high)");
    res.committed_events = cut;
    events_committed_ += cut;
    // Retire (don't erase): the head cursor advances in O(1); compaction
    // is amortized against the events retired.
    head_ += cut;
    processed_count_ -= cut;
    snapshots_.erase(snapshots_.begin(), std::prev(snap));
    maybe_compact();
  }

  // Outputs below GVT can never be cancelled (cancellation boundaries are
  // >= GVT); their transitions already count as sent.
  auto out = std::lower_bound(
      output_queue_.begin(), output_queue_.end(), gvt,
      [](const OutputRecord& o, SimTime time) { return o.send_time < time; });
  output_queue_.erase(output_queue_.begin(), out);
  return res;
}

std::uint64_t LpRuntime::finalize() {
  mem::ReclaimScope reclaim;
  const auto committed = static_cast<std::uint64_t>(processed_count_);
  events_committed_ += committed;
  // Nothing can be cancelled after termination: the surviving outputs'
  // transitions stay counted.
  output_queue_.clear();
  queue_.erase(queue_.begin(),
               queue_.begin() +
                   static_cast<std::ptrdiff_t>(head_ + processed_count_));
  head_ = 0;
  processed_count_ = 0;
  return committed;
}

}  // namespace pls::warped
