#pragma once
// LogicalProcess: the behavioural interface of a Time Warp LP.
//
// Behaviour objects are *stateless*: all mutable simulation state lives in
// the kernel-owned LpState, which the kernel snapshots and restores around
// rollbacks, so a batch can re-execute after any rollback.  Only the
// optimistic parallel kernel runs them: the sequential reference
// (logicsim/sequential.hpp) steps the netlist behaviours' compiled model
// with a flat engine of its own and never calls init() or execute(), so
// it checks these execute paths instead of sharing them.

#include <span>

#include "warped/types.hpp"

namespace pls::warped {

/// Services an LP may use while executing a batch of events.  The parallel
/// kernel implements it, logging every send for cancellation.
class Context {
 public:
  virtual ~Context() = default;

  /// Virtual time of the batch being executed.
  virtual SimTime now() const = 0;

  /// Simulation horizon: LPs must not schedule events beyond this.
  virtual SimTime end_time() const = 0;

  /// The executing LP's id.
  virtual LpId self() const = 0;

  /// Mutable LP state (snapshotted by the kernel around this call).
  virtual LpState& state() = 0;

  /// Send a k-word payload to `target`'s input `port`, arriving at
  /// `recv_time` (must be strictly greater than now(): nonzero lookahead
  /// keeps the simulation free of zero-delay cycles).  `values[0..k)` are
  /// the payload words and `masks[0..k)` flag the lanes whose value changed
  /// (see Event); at least one mask word must be non-zero.  Words past the
  /// first (lanes > 64) ride the event's pooled extension.
  virtual void send_wide(LpId target, SimTime recv_time, std::uint32_t port,
                         const std::uint64_t* values,
                         const std::uint64_t* masks, std::uint32_t k) = 0;

  /// One-word send_wide; scalar LPs keep the default mask bit 0.
  void send(LpId target, SimTime recv_time, std::uint32_t port,
            std::uint64_t value, std::uint64_t mask = 1) {
    send_wide(target, recv_time, port, &value, &mask, 1);
  }

  /// Schedule a tick to self at `recv_time` (> now()).
  void schedule_self(SimTime recv_time, std::uint64_t value = 0) {
    send(self(), recv_time, kTickPort, value);
  }
};

/// An event batch: all positive events for one LP sharing one receive time.
/// Batch-at-a-time execution makes gate evaluation order-independent (each
/// port has a single driver, so a batch holds at most one event per port),
/// which is what guarantees parallel ≡ sequential results.
using EventBatch = std::span<const Event>;

class LogicalProcess {
 public:
  virtual ~LogicalProcess() = default;

  /// Starting state (installed before init()).
  virtual LpState initial_state() const { return LpState{}; }

  /// Called once at virtual time 0 before any event; may schedule events.
  virtual void init(Context& ctx) = 0;

  /// Process all events at one virtual time.  Must be deterministic given
  /// (state, batch content) — it may be re-executed after rollbacks.
  virtual void execute(Context& ctx, EventBatch batch) = 0;
};

}  // namespace pls::warped
