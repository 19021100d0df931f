#pragma once
// Kernel trace recording: fixed-capacity, drop-counting, single-producer
// ring buffers of timestamped trace events, one per node thread.
//
// Design constraints (why this is not a logger):
//  * The producer is a Time Warp node thread in its main loop; recording
//    must never block, never allocate, never take a lock.  record() is one
//    bounds-masked store plus a release on the event counter.
//  * The ring holds the NEWEST events: on overflow the oldest slot is
//    overwritten and the overwrite is counted.  The primary consumers — the
//    post-run exporter and the deadlock watchdog's post-mortem dump — both
//    want the tail of the story, not its beginning, and the drop counter
//    keeps truncation visible instead of silent.
//  * Exactly one thread writes a given ring.  Readers (snapshot / tail /
//    dropped) must only run after the writer thread has been joined; the
//    release/acquire pair on the counter then makes every recorded slot
//    visible.  There is no concurrent-drain mode — the live metrics path
//    reads atomic gauges (metrics.hpp), never the rings.
//
// The event taxonomy is the kernel's: see TraceKind.  Events carry two
// generic u64 args plus an LP id; the exporter (export.hpp) maps them to
// Perfetto/Chrome trace.json names and args per kind.

#include <atomic>
#include <cstdint>
#include <cstddef>
#include <memory>
#include <vector>

namespace pls::obs {

/// What happened.  Kind-specific args (a, b, lp) are documented per
/// enumerator; `dur_ns == 0` marks an instant, `> 0` a span.
enum class TraceKind : std::uint16_t {
  kExecBatch = 0,   ///< span: lp, a = events in batch, b = virtual time
  kRollback,        ///< instant: lp, a = events undone, b = 1 if secondary
  kGvtStart,        ///< instant (node 0): a = round
  kGvtJoin,         ///< instant: a = round, b = local min reported
  kGvtDone,         ///< instant (node 0): a = round, b = new GVT
  kFossil,          ///< span: a = events committed, b = live entries after
  kThrottle,        ///< instant: a = window after, b = fraction*1e6,
                    ///<          lp = direction + 1 (0 shrink/1 hold/2 grow)
  kFlush,           ///< instant: a = messages flushed this burst end,
                    ///<          b = cumulative batches flushed
};

/// Stable lowercase name used in exports ("exec", "rollback", ...).
const char* to_string(TraceKind kind) noexcept;

struct TraceEvent {
  std::uint64_t ts_ns = 0;   ///< steady-clock timestamp (util::steady_now_ns)
  std::uint64_t dur_ns = 0;  ///< 0 = instant
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::uint32_t lp = ~std::uint32_t{0};
  TraceKind kind = TraceKind::kExecBatch;
};

class TraceRing {
 public:
  /// Capacity is rounded up to a power of two (min 16).
  explicit TraceRing(std::size_t capacity);

  // Movable so sessions can hold rings by value (the counter is only
  // moved between recordings, never concurrently with the producer).
  TraceRing(TraceRing&& o) noexcept
      : slots_(std::move(o.slots_)), mask_(o.mask_),
        count_(o.count_.load(std::memory_order_relaxed)) {}
  TraceRing& operator=(TraceRing&& o) noexcept {
    slots_ = std::move(o.slots_);
    mask_ = o.mask_;
    count_.store(o.count_.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
    return *this;
  }

  std::size_t capacity() const noexcept { return mask_ + 1; }

  /// Producer-only.  Never blocks, never allocates; overwrites the oldest
  /// event when full (counted by dropped()).
  void record(const TraceEvent& ev) noexcept {
    const std::uint64_t n = count_.load(std::memory_order_relaxed);
    slots_[n & mask_] = ev;
    count_.store(n + 1, std::memory_order_release);
  }

  /// Convenience: record an instant with the current fields filled in.
  void record(TraceKind kind, std::uint64_t ts_ns, std::uint64_t dur_ns,
              std::uint64_t a, std::uint64_t b,
              std::uint32_t lp = ~std::uint32_t{0}) noexcept {
    TraceEvent ev;
    ev.ts_ns = ts_ns;
    ev.dur_ns = dur_ns;
    ev.a = a;
    ev.b = b;
    ev.lp = lp;
    ev.kind = kind;
    record(ev);
  }

  /// Events ever recorded (including overwritten ones).
  std::uint64_t recorded() const noexcept {
    return count_.load(std::memory_order_acquire);
  }
  /// Events lost to overwriting — exact: recorded() - min(recorded(), cap).
  std::uint64_t dropped() const noexcept {
    const std::uint64_t n = recorded();
    return n > capacity() ? n - capacity() : 0;
  }
  /// Events currently held.
  std::size_t size() const noexcept {
    const std::uint64_t n = recorded();
    return n < capacity() ? static_cast<std::size_t>(n) : capacity();
  }

  /// The surviving events, oldest first.  Reader-side: only call after the
  /// producer thread has been joined (post-run or post-stall).
  std::vector<TraceEvent> snapshot() const;
  /// The newest `n` surviving events, oldest first.
  std::vector<TraceEvent> tail(std::size_t n) const;

 private:
  std::unique_ptr<TraceEvent[]> slots_;
  std::size_t mask_ = 0;
  std::atomic<std::uint64_t> count_{0};
};

}  // namespace pls::obs
