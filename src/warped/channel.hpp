#pragma once
// The coalescing comm fabric: per-destination send buffering on the
// sender side and batch-granular lock-free transfer to the receiving
// node's mailbox (InProcChannel, below).
//
// Why batches: the paper's testbed made inter-node messages the dominant
// cost, and the per-message protocol mirrored that — one mutex
// acquisition and one heap rebalance per event.  Coalescing inverts it:
// a node thread accumulates the InFlights it routes during an LTSF
// execute burst into one per-destination buffer and hands the whole
// buffer over with a single lock-free push.  Synchronization cost is per
// *batch*, marshalling cost stays per message (the modeled
// send_overhead_ns is charged at buffer-add time, where the real
// marshalling work would happen).
//
// GVT soundness under coalescing (see src/warped/README.md for the full
// argument; tested by tests/warped_comm_test.cpp):
//  * A buffered message carries its sender's epoch color from *add*
//    (push) time, never from flush time, and the sender performs
//    GvtCoordinator::count_send before the add.  A batch of n messages
//    therefore counts as n transient messages in the Mattern accounting;
//    the batch itself is invisible to GVT.
//  * A buffered-but-unflushed send holds the sender's GVT report down:
//    SendCoalescer::min_recv_time() must be folded into the node's join
//    report exactly like the holding heap's minimum.
//  * Flush is forced at LTSF-burst end (every kernel poll), before a GVT
//    join, and by the size/age bounds in CoalesceConfig — a white message
//    can sit buffered only within one poll, so GVT rounds stay live.

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "warped/comm.hpp"

namespace pls::warped {

/// One coalesced transfer unit: every message a sender buffered for one
/// destination since the last flush.  Intrusively chained for the
/// mailbox's lock-free stack.
struct Batch {
  std::vector<InFlight> msgs;
  Batch* next = nullptr;
};

/// Multi-producer single-consumer mailbox of Batches: a Treiber stack
/// whose producers pay one CAS per *batch* (the per-message mutex this
/// replaces paid one lock per event) and whose consumer takes the whole
/// chain with a single exchange.  Producers only ever push and the
/// consumer only ever detaches the entire list, so the classic ABA
/// hazard of lock-free stacks cannot arise.
///
/// Staleness contract of probably_empty(): the probe may claim
/// "not empty" spuriously (the counter is raised before the push's CAS
/// completes, so a drain racing the push can find nothing yet), but once
/// push() has returned, a subsequent probe is guaranteed to see the
/// counter non-zero until those messages are drained.  The probe
/// therefore never parks a mailbox with completed-but-undrained content
/// — the failure mode that would deadlock the receive loop — and a
/// spurious "not empty" merely costs one empty drain.  There is no exact
/// empty(): the only caller that ever needed exactness was the GVT
/// accounting, and that is what the Mattern send/drain counters are for.
class alignas(64) BatchMailbox {
 public:
  BatchMailbox() = default;
  BatchMailbox(const BatchMailbox&) = delete;
  BatchMailbox& operator=(const BatchMailbox&) = delete;

  ~BatchMailbox() {
    Batch* b = head_.load(std::memory_order_acquire);
    while (b != nullptr) {
      Batch* next = b->next;
      delete b;
      b = next;
    }
  }

  /// Producer side; one CAS loop per batch.  The message counter rises
  /// *before* the CAS so it can never run behind a concurrent drain's
  /// subtraction and wrap (the drain only subtracts messages it actually
  /// took off the stack).
  void push(std::unique_ptr<Batch> batch) noexcept {
    approx_msgs_.fetch_add(batch->msgs.size(), std::memory_order_release);
    Batch* raw = batch.release();
    Batch* head = head_.load(std::memory_order_relaxed);
    do {
      raw->next = head;
    } while (!head_.compare_exchange_weak(head, raw,
                                          std::memory_order_release,
                                          std::memory_order_relaxed));
  }

  /// Consumer side: detach the whole chain with one exchange and move
  /// every message into `out` in push order (the stack is LIFO over
  /// batches; the chain is reversed before unpacking).  Returns the
  /// number of messages moved.
  std::size_t drain(std::vector<InFlight>& out) {
    Batch* chain = head_.exchange(nullptr, std::memory_order_acquire);
    if (chain == nullptr) return 0;
    Batch* rev = nullptr;
    std::size_t n = 0;
    while (chain != nullptr) {
      Batch* next = chain->next;
      chain->next = rev;
      rev = chain;
      n += chain->msgs.size();
      chain = next;
    }
    // Reserve up front: a piecemeal grow inside the move-insert would
    // re-move InFlights already drained.
    out.reserve(out.size() + n);
    while (rev != nullptr) {
      Batch* next = rev->next;
      for (auto& m : rev->msgs) out.push_back(std::move(m));
      delete rev;
      rev = next;
    }
    approx_msgs_.fetch_sub(n, std::memory_order_relaxed);
    return n;
  }

  /// Lock-free idle-path probe; see the staleness contract above.
  bool probably_empty() const noexcept {
    return approx_msgs_.load(std::memory_order_acquire) == 0;
  }

 private:
  std::atomic<Batch*> head_{nullptr};
  std::atomic<std::size_t> approx_msgs_{0};
};

/// The inter-node transport: one BatchMailbox per node endpoint (cache-line
/// aligned so producers for different destinations never contend on one
/// line).  The kernel only ever sends and drains whole Batches.  send()
/// is callable from any thread; drain() and probably_empty() for a given
/// endpoint only by that endpoint's owner.
class InProcChannel {
 public:
  explicit InProcChannel(std::uint32_t n)
      : n_(n), boxes_(std::make_unique<BatchMailbox[]>(n)) {}

  /// Number of endpoints (node slots) this channel connects.
  std::uint32_t endpoints() const noexcept { return n_; }

  /// Deliver `batch` to endpoint `to` (any thread).
  void send(std::uint32_t to, std::unique_ptr<Batch> batch) {
    boxes_[to].push(std::move(batch));
  }

  /// Move every delivered message for `node` into `out`; owner only.
  std::size_t drain(std::uint32_t node, std::vector<InFlight>& out) {
    return boxes_[node].drain(out);
  }

  /// Lock-free emptiness probe for `node`'s endpoint; owner only.  Same
  /// staleness contract as BatchMailbox::probably_empty().
  bool probably_empty(std::uint32_t node) const noexcept {
    return boxes_[node].probably_empty();
  }

 private:
  std::uint32_t n_;
  std::unique_ptr<BatchMailbox[]> boxes_;
};

/// Send-side coalescing knobs (KernelConfig::coalesce).
struct CoalesceConfig {
  /// Off = every add flushes immediately as a one-message batch through
  /// the identical path, so on-vs-off comparisons isolate the batching.
  bool enabled = true;
  /// Size bound: a destination buffer reaching this many messages
  /// flushes from inside add(), bounding batch memory and the burst of
  /// heap pushes the receiver absorbs at once.
  std::uint32_t max_batch_msgs = 64;
  /// Age bound: if the oldest buffered message for a destination is this
  /// old at the next add(), the buffer flushes.  A backstop only — the
  /// kernel flushes every destination at each LTSF-burst end anyway, so
  /// this matters just for pathological bursts that keep routing without
  /// reaching the burst boundary.
  static constexpr std::uint64_t max_batch_age_ns = 200'000;
};

/// Cumulative flush accounting (NodeStats / obs gauges).
struct CoalesceStats {
  std::uint64_t batches_flushed = 0;  ///< batches pushed into the channel
  std::uint64_t msgs_flushed = 0;     ///< messages inside them
  std::uint64_t max_batch_msgs = 0;   ///< largest single batch
};

/// Per-node-thread send buffers, one per destination.  Owner-thread only
/// — all the cross-thread machinery lives behind InProcChannel::send.
///
/// Protocol obligations of the caller (the kernel's routing step):
///  * stamp msg.epoch with the sender's current GVT round and call
///    GvtCoordinator::count_send *before* add() — epoch color and
///    transient-message accounting are add-time properties, so a batch
///    of n messages counts as exactly n transients no matter when it
///    flushes;
///  * charge the modeled per-message send_overhead_ns before add();
///  * fold min_recv_time() into every GVT join report — a buffered
///    message is work this node owes the world, exactly like a held
///    event;
///  * flush_all() at every LTSF-burst end (and thus before the next
///    join) and after the node loop exits.
/// deliver_at_ns is stamped at flush time (flush wall-clock + latency):
/// the wire is only paid when the batch actually leaves, which is what
/// makes a coalesced run's modeled delivery no *earlier* than the
/// per-message baseline's.
class SendCoalescer {
 public:
  SendCoalescer() = default;

  void configure(InProcChannel* ch, CoalesceConfig cfg) {
    ch_ = ch;
    cfg_ = cfg;
    if (cfg_.max_batch_msgs == 0) cfg_.max_batch_msgs = 1;
    bufs_.clear();
    bufs_.resize(ch->endpoints());
  }

  /// Buffer one message for `dest`; may flush (size/age bound, or always
  /// when coalescing is disabled).
  void add(std::uint32_t dest, InFlight msg, std::uint64_t now_ns,
           std::uint64_t latency_ns) {
    DestBuf& buf = bufs_[dest];
    if (buf.msgs.empty()) buf.first_add_ns = now_ns;
    if (msg.event.recv_time < buf.min_recv) buf.min_recv = msg.event.recv_time;
    buf.msgs.push_back(std::move(msg));
    ++buffered_;
    if (!cfg_.enabled || buf.msgs.size() >= cfg_.max_batch_msgs ||
        now_ns - buf.first_add_ns >= cfg_.max_batch_age_ns) {
      flush_dest(dest, now_ns, latency_ns);
    }
  }

  /// Flush one destination's buffer as a single Batch (no-op if empty).
  void flush_dest(std::uint32_t dest, std::uint64_t now_ns,
                  std::uint64_t latency_ns) {
    DestBuf& buf = bufs_[dest];
    if (buf.msgs.empty()) return;
    auto batch = std::make_unique<Batch>();
    batch->msgs.swap(buf.msgs);
    buf.min_recv = kEndOfTime;
    buf.first_add_ns = 0;
    const std::size_t n = batch->msgs.size();
    // The wire is paid now: delivery deadline = flush time + latency.
    const std::uint64_t deliver_at = now_ns + latency_ns;
    for (auto& m : batch->msgs) m.deliver_at_ns = deliver_at;
    buffered_ -= n;
    ++stats_.batches_flushed;
    stats_.msgs_flushed += n;
    if (n > stats_.max_batch_msgs) stats_.max_batch_msgs = n;
    ch_->send(dest, std::move(batch));
  }

  /// Flush every destination; returns messages flushed (0 = nothing
  /// buffered, the common idle case — checked cheaply via buffered_).
  std::size_t flush_all(std::uint64_t now_ns, std::uint64_t latency_ns) {
    if (buffered_ == 0) return 0;
    const std::size_t n = buffered_;
    for (std::uint32_t d = 0; d < bufs_.size(); ++d) {
      flush_dest(d, now_ns, latency_ns);
    }
    return n;
  }

  /// Minimum receive time over everything still buffered (kEndOfTime if
  /// none).  Exact, owner-thread only; folded into the GVT join report.
  SimTime min_recv_time() const noexcept {
    SimTime m = kEndOfTime;
    for (const DestBuf& b : bufs_) {
      if (b.min_recv < m) m = b.min_recv;
    }
    return m;
  }

  std::size_t buffered() const noexcept { return buffered_; }
  const CoalesceStats& stats() const noexcept { return stats_; }

 private:
  struct DestBuf {
    std::vector<InFlight> msgs;
    SimTime min_recv = kEndOfTime;
    std::uint64_t first_add_ns = 0;
  };

  InProcChannel* ch_ = nullptr;
  CoalesceConfig cfg_;
  std::vector<DestBuf> bufs_;
  std::size_t buffered_ = 0;
  CoalesceStats stats_;
};

}  // namespace pls::warped
