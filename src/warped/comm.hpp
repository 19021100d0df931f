#pragma once
// Inter-node communication: the in-flight message, the modeled network,
// and the receiver-side holding heap.  The transport itself —
// per-destination send coalescing and lock-free batch mailboxes — lives
// in channel.hpp.
//
// The paper's testbed was eight workstations on fast Ethernet — inter-node
// messages were orders of magnitude more expensive than intra-node event
// handoffs.  On a single multicore that asymmetry disappears, so we model
// it explicitly (docs/ARCHITECTURE.md, "Modeled testbed and stand-ins"):
//   * the sender burns `send_overhead_ns` of CPU per inter-node message
//     (marshalling / protocol stack cost), and
//   * the message only becomes *deliverable* `latency_ns` of wall-clock
//     time after the send (wire + switch latency; stamped when the
//     carrying batch flushes).
// Intra-node events bypass all of this, exactly as LPs inside one WARPED
// cluster communicated directly.
//
// GVT accounting boundary: a message is "in transit" from the moment the
// sender buffers it (SendCoalescer::add — where count_send runs and the
// epoch color is stamped) until the receiver drains it, regardless of
// when the batch physically flushes.  See channel.hpp and
// src/warped/README.md.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "warped/types.hpp"

namespace pls::warped {

struct NetworkModel {
  std::uint64_t send_overhead_ns = 0;  ///< sender CPU cost per message
  std::uint64_t latency_ns = 0;        ///< delivery delay (wall clock)
};

/// An event in flight: deliverable once wall-clock `deliver_at_ns`
/// (relative to the kernel's epoch) has passed.
struct InFlight {
  std::uint64_t deliver_at_ns = 0;
  std::uint64_t seq = 0;    ///< FIFO tie-break for equal deadlines
  std::uint64_t epoch = 0;  ///< sender's GVT round at push (gvt.hpp color)
  Event event;

  friend bool operator>(const InFlight& a, const InFlight& b) noexcept {
    if (a.deliver_at_ns != b.deliver_at_ns) {
      return a.deliver_at_ns > b.deliver_at_ns;
    }
    return a.seq > b.seq;
  }
};

/// Min-heap (by delivery deadline) of in-flight messages held at the
/// receiver until their deadline passes.  Hand-rolled over a vector, with
/// the minimum receive timestamp tracked in two flat SimTime min-heaps
/// using lazy deletion: `times_` holds the recv_time of every message
/// ever pushed and still notionally live, `dead_` the recv_time of every
/// popped one; matching tops cancel when the minimum is queried.  The
/// previous design kept a counted std::map mirror — one node allocation
/// plus a red-black rebalance per push/pop — which dominated the drain
/// path once the mailbox went batch-granular.  Here push/pop pay one
/// push_heap on a flat u64 vector (no allocation beyond amortized vector
/// growth) and min_recv_time() is O(1) whenever the minimum is live,
/// amortized O(log n) overall (each entry is pruned at most once).
class HoldingHeap {
 public:
  void push(InFlight msg) {
    times_.push_back(msg.event.recv_time);
    std::push_heap(times_.begin(), times_.end(), std::greater<>{});
    heap_.push_back(std::move(msg));
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
  }

  bool empty() const noexcept { return heap_.empty(); }
  std::size_t size() const noexcept { return heap_.size(); }

  const InFlight& top() const { return heap_.front(); }

  InFlight pop() {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
    InFlight msg = std::move(heap_.back());
    heap_.pop_back();
    // Lazy deletion: the recv_time mirror entry dies when it surfaces.
    dead_.push_back(msg.event.recv_time);
    std::push_heap(dead_.begin(), dead_.end(), std::greater<>{});
    return msg;
  }

  /// Earliest delivery deadline (for idle-sleep bounding); 0 if empty.
  std::uint64_t next_deadline_ns() const noexcept {
    return heap_.empty() ? 0 : heap_.front().deliver_at_ns;
  }

  /// Minimum receive timestamp over all held messages (kEndOfTime if
  /// empty); exact, owner-thread only — feeds the owner's GVT report.
  /// Non-const: prunes cancelled (popped) entries off the mirror tops.
  /// Every element of dead_ has a matching element in times_, and both
  /// are min-heaps, so dead_ can never surface a key below times_'s top;
  /// equal tops are a cancelled pair.
  SimTime min_recv_time() noexcept {
    while (!dead_.empty() && dead_.front() == times_.front()) {
      std::pop_heap(times_.begin(), times_.end(), std::greater<>{});
      times_.pop_back();
      std::pop_heap(dead_.begin(), dead_.end(), std::greater<>{});
      dead_.pop_back();
    }
    return times_.empty() ? kEndOfTime : times_.front();
  }

 private:
  std::vector<InFlight> heap_;
  std::vector<SimTime> times_;  ///< recv_time of every live message
  std::vector<SimTime> dead_;   ///< recv_time of popped, not yet pruned
};

}  // namespace pls::warped
