#pragma once
// LpRuntime: per-LP Time Warp bookkeeping — input queue, output queue,
// state snapshots, rollback, annihilation, coast-forward replay and fossil
// collection.
//
// This class is deliberately free of threads and I/O: the cluster scheduler
// calls it from exactly one thread, and the whole rollback protocol can be
// unit-tested deterministically (tests/warped_lp_runtime_test.cpp).
//
// Queue discipline (classic Jefferson Time Warp, WARPED flavour).  Each
// queue holds only what a rollback or a cancellation can still reach, so a
// node's working set follows its live work, not the run length:
//  * input queue = one sorted vector with a retired-prefix head cursor;
//    of the live range a prefix of `processed_count` events has been
//    executed, the suffix is pending.  In-order arrivals append in O(1)
//    (the common case on the committed path); fossil collection *retires*
//    the committed prefix by advancing the head cursor in O(1) and
//    compacts as soon as the retired prefix reaches the size of the live
//    range.  Retired entries therefore never outnumber live ones after a
//    fossil pass, and each compaction moves at most as many live events as
//    it drops retired ones (amortized O(1) per committed event).
//  * output queue = one 32-byte cancel record per send (OutputRecord):
//    the anti-message's identity and route plus the lane transitions the
//    send counted, never a copy of the event or its payload words.
//  * copy state saving after every `state_period`-th executed batch (all
//    events sharing one receive time execute as one batch); period 1 is
//    the classic copy-state-every-event discipline.
//  * a positive event with receive time <= the LP's last processed time
//    (or below the current replay boundary) is a *straggler*: roll back to
//    its time (primary rollback).
//  * a negative event annihilates its positive twin; if the twin's effects
//    are already reflected anywhere (processed, or below the replay
//    boundary) this forces a rollback first (secondary rollback).  Routes
//    are FIFO per (sender, target), so the twin has always arrived: an
//    anti without one fails a check.
//  * rollback = restore the latest snapshot strictly before the rollback
//    time T, un-process everything after the snapshot, emit anti-messages
//    for every output sent at or after T (aggressive cancellation), and
//    mark [snapshot, T) for *coast-forward replay*: those batches
//    re-execute with sends suppressed, because their original outputs were
//    not cancelled and remain valid.
//  * commit accounting happens at execute and rollback time: commit_batch
//    adds a batch's input lane transitions, record_output a send's, and
//    rollback subtracts what it un-processes or cancels (a coast-forward
//    replay adds its batches back; muted, it records no outputs).  Fossil
//    collection and finalize only advance cursors and free memory; once
//    the run is over the counters hold exactly the committed work.
//  * memory: wide event payloads and state words are arena-pooled
//    (mem/pool.hpp); rollbacks and finalization run under a
//    mem::ReclaimScope, and the kernel opens one per fossil pass over its
//    LPs, so each run of discarded payloads goes back to its owner pool
//    with a single splice.

#include <cstdint>
#include <span>
#include <vector>

#include "warped/lp.hpp"
#include "warped/types.hpp"

namespace pls::warped {

class LpRuntime {
 public:
  /// What cancelling one send needs: the anti-message's routing and
  /// identity (Event::matches compares sender and id; the sender is this
  /// LP) and the lane transitions the send added to sends_committed().
  struct OutputRecord {
    SimTime send_time = 0;
    SimTime recv_time = 0;
    std::uint64_t id = 0;
    LpId target = kInvalidLp;
    std::uint32_t transitions = 0;  ///< mask popcount; 0 for self-sends
  };
  static_assert(sizeof(OutputRecord) == 32);

  LpRuntime() = default;
  LpRuntime(LpId id, LogicalProcess* behavior, std::uint32_t state_period = 1);

  LpId id() const noexcept { return id_; }
  LogicalProcess* behavior() const noexcept { return behavior_; }

  // ---- insertion ---------------------------------------------------------

  struct InsertResult {
    bool rolled_back = false;
    bool secondary = false;       ///< rollback caused by an anti-message
    SimTime rollback_time = 0;    ///< restore boundary (straggler time)
    std::uint64_t unprocessed_events = 0;  ///< events un-processed
    /// Anti-messages for cancelled outputs; the caller must route these.
    std::vector<Event> antis;
  };

  /// Insert a positive or negative event (a positive one moves into the
  /// queue).  May trigger a rollback whose side effects (anti-messages to
  /// send) are returned to the caller.
  InsertResult insert(Event ev);

  // ---- scheduling --------------------------------------------------------

  bool has_unprocessed() const noexcept {
    return head_ + processed_count_ < queue_.size();
  }
  /// Receive time of the next pending batch (kEndOfTime if none).
  SimTime next_time() const noexcept {
    return has_unprocessed() ? queue_[head_ + processed_count_].recv_time
                             : kEndOfTime;
  }
  /// Virtual time of the last executed batch (0 before any execution).
  SimTime last_processed() const noexcept { return last_processed_; }

  /// True if the batch at `batch_time` is a coast-forward replay: execute
  /// it to rebuild state but suppress (do not send, do not record) its
  /// outputs — they were never cancelled.
  bool in_replay(SimTime batch_time) const noexcept {
    return batch_time < replay_until_;
  }

  /// The next batch (all pending events at next_time()) as a view into
  /// the input queue — no copy.  The caller executes the behaviour against
  /// state() and then calls commit_batch(); the view is invalidated by any
  /// insert()/rollback on this LP, which the batch-at-a-time discipline
  /// rules out during execution (sends route only after commit).
  /// `batch_time` receives the batch's receive time.
  EventBatch begin_batch(SimTime& batch_time) const;

  /// Advance past the batch begin_batch() returned, count its input lane
  /// transitions, and snapshot the state per the state-saving period.
  void commit_batch(SimTime batch_time, std::size_t batch_size);

  // ---- state -------------------------------------------------------------

  LpState& state() noexcept { return state_; }
  const LpState& state() const noexcept { return state_; }
  void install_initial_state(const LpState& s);

  /// Record a positive output event's cancel record and count its lane
  /// transitions (called by the kernel's send path before routing, so it
  /// can be cancelled later).
  void record_output(const Event& ev);

  // ---- GVT / fossil collection -------------------------------------------

  /// Smallest receive time this LP can still contribute to GVT: its first
  /// pending batch whose effects are *visible*.  Pending batches below the
  /// replay boundary are coast-forward re-executions with sends suppressed
  /// — they rebuild state that was already accounted for and cannot create
  /// anything new, so reporting them would (harmlessly but needlessly)
  /// drag the GVT estimate below an already-published sound bound.
  /// Anti-messages in flight are accounted by the cluster.
  SimTime gvt_min_time() const noexcept {
    if (!has_unprocessed()) return kEndOfTime;
    const SimTime t = queue_[head_ + processed_count_].recv_time;
    if (t >= replay_until_) return t;
    const std::size_t i = first_at_or_after(replay_until_);
    return head_ + i < queue_.size() ? queue_[head_ + i].recv_time
                                     : kEndOfTime;
  }

  struct FossilResult {
    std::uint64_t committed_events = 0;
  };
  /// Irrevocably commit everything at or below the newest snapshot that
  /// precedes `gvt` (events older than that snapshot can never be replayed
  /// or rolled back again).  A caller sweeping many LPs opens one
  /// mem::ReclaimScope around the sweep to batch the frees.
  FossilResult fossil_collect(SimTime gvt);

  /// True when no higher GVT, kEndOfTime included, can commit or free
  /// anything before this LP executes or receives again: no output awaits
  /// pruning, at most one snapshot is kept, and no live event lies at or
  /// below it.  Processed events past the only snapshot (periodic state
  /// saving) wait for the next snapshot, which only execution takes.  Only
  /// execution or insertion (rollback included) can make it false again,
  /// so the kernel's fossil pass skips idle LPs until one of those.
  bool fossil_idle() const noexcept {
    return output_queue_.empty() && snapshots_.size() <= 1 &&
           (snapshots_.empty() || head_ == queue_.size() ||
            queue_[head_].recv_time > snapshots_.front().time);
  }

  /// End-of-run commit: counts and discards every processed event still in
  /// the queue (with periodic state saving a few trailing batches survive
  /// fossil_collect(kEndOfTime)) and drops the output records.  Call only
  /// when the simulation is over.
  std::uint64_t finalize();

  /// Monotonic event-id source for this LP's sends.  Deliberately *not*
  /// rolled back: re-sends after a rollback get fresh ids, so a stale
  /// anti-message can never annihilate a regenerated positive.
  std::uint64_t alloc_event_id() noexcept { return next_event_id_++; }

  // ---- accounting ---------------------------------------------------------

  std::uint64_t events_processed() const noexcept { return events_processed_; }
  std::uint64_t events_rolled_back() const noexcept {
    return events_rolled_back_;
  }
  /// Number of rollbacks (primary + secondary) this LP suffered.
  std::uint64_t rollbacks() const noexcept { return rollbacks_; }
  /// Events irrevocably committed (cut by fossil collection, plus what
  /// finalize() commits) — the per-LP useful-work count
  /// check_equivalence compares with the sequential reference.
  std::uint64_t events_committed() const noexcept {
    return events_committed_;
  }
  /// Non-self lane transitions sent and not cancelled: each send counts
  /// popcount over all its mask words when recorded, and a rollback takes
  /// back the ones it cancels, so once the run is over this is the
  /// committed per-LP traffic count (≈ transitions × fanout; self-sends
  /// are scheduling ticks and excluded) that check_equivalence compares
  /// and the benches sum into committed transitions.  Scalar events have
  /// mask = 1, so this is exactly the committed-send count in single-lane
  /// runs.
  std::uint64_t sends_committed() const noexcept { return sends_committed_; }
  /// *Incoming* lane transitions of the processed, not rolled-back events:
  /// popcount over the mask words of each event, added when its batch
  /// executes and taken back when a rollback un-processes it.  Once the
  /// run is over (finalize()) this is the committed lane-aware work —
  /// a gate hot in one lane of 256 does not weigh like one hot in all of
  /// them — that check_equivalence compares and the pipeline benchmark
  /// sums.  Scalar events carry mask = 1, so in single-lane runs this
  /// equals events_committed() exactly.
  std::uint64_t lane_work_committed() const noexcept {
    return lane_work_committed_;
  }
  /// Most events undone by a single rollback — bounds how deep the
  /// optimism ran ahead of this LP's true frontier.
  std::uint64_t max_rollback_depth() const noexcept {
    return max_rollback_depth_;
  }
  /// Live memory footprint in queue entries (input + output + snapshots);
  /// used to emulate the paper's out-of-memory behaviour.  Retired
  /// (fossil-collected, not yet compacted) entries are committed history
  /// and excluded.
  std::size_t live_entries() const noexcept {
    return (queue_.size() - head_) + output_queue_.size() + snapshots_.size();
  }

  /// Test hooks: inspect internals (live queue range only, plus the
  /// count of retired entries awaiting compaction).
  std::size_t processed_count() const noexcept { return processed_count_; }
  std::span<const Event> input_queue() const noexcept {
    return {queue_.data() + head_, queue_.size() - head_};
  }
  std::size_t retired_entries() const noexcept { return head_; }
  const std::vector<OutputRecord>& output_queue() const noexcept {
    return output_queue_;
  }
  const std::vector<Snapshot>& snapshots() const noexcept {
    return snapshots_;
  }

 private:
  void rollback(SimTime to_time, InsertResult& res);

  /// Index (relative to the head cursor) of the first live queue event
  /// with recv_time >= t.
  std::size_t first_at_or_after(SimTime t) const;

  /// Compact the retired prefix out of the queue once it reaches the size
  /// of the live range (amortized O(1) per retired event).
  void maybe_compact();

  // Members run hot to cold, one 64-byte cache line per group, so a batch
  // touches the lines its path needs and no more.

  // Line 0: everything insert() and next_time() read.
  /// Sorted; [0, head_) retired (committed, awaiting compaction),
  /// [head_, head_ + processed_count_) processed, the rest pending.
  alignas(64) std::vector<Event> queue_;
  std::size_t head_ = 0;
  std::size_t processed_count_ = 0;
  SimTime last_processed_ = 0;
  SimTime replay_until_ = 0;       ///< batches below this re-execute muted
  LpId id_ = kInvalidLp;
  bool processed_any_ = false;

  // Line 1: state and snapshots (commit_batch, rollback).
  alignas(64) LpState state_;
  std::vector<Snapshot> snapshots_;  ///< ascending in time
  std::uint32_t state_period_ = 1;
  std::uint32_t batches_since_snapshot_ = 0;

  // Line 2: the behaviour, outputs and work counters (execute and send).
  alignas(64) LogicalProcess* behavior_ = nullptr;
  std::vector<OutputRecord> output_queue_;  ///< ascending in send_time
  std::uint64_t next_event_id_ = 1;
  std::uint64_t events_processed_ = 0;
  std::uint64_t lane_work_committed_ = 0;
  std::uint64_t sends_committed_ = 0;

  // Line 3: initial state, commit and rollback statistics.
  alignas(64) LpState initial_state_;
  std::uint64_t events_committed_ = 0;
  std::uint64_t events_rolled_back_ = 0;
  std::uint64_t rollbacks_ = 0;
  std::uint64_t max_rollback_depth_ = 0;
};
static_assert(sizeof(LpRuntime) == 4 * 64, "LpRuntime spans four lines");

}  // namespace pls::warped
