#pragma once
// The Time Warp kernel: one thread per node ("workstation"), each running a
// WARPED-style cluster of logical processes with an LTSF (lowest timestamp
// first) scheduler, communicating through mailboxes with a modeled network
// (comm.hpp), synchronized by an asynchronous Mattern-style GVT (gvt.hpp)
// with fossil collection.  No node thread ever blocks on another: GVT
// rounds are joined from the main loop, transient messages are accounted
// with epoch-colored counters, and a watchdog thread turns any residual
// stall into a diagnosed abort instead of a silent hang.
//
// Mapping to the paper's framework (§4): LPs are grouped into clusters, one
// per node; LPs within a cluster interact directly as classical Time Warp
// processes; inter-cluster messages pay the network costs.  The partition
// produced by any of the study's algorithms is exactly the LP→node map
// given to this kernel, and it stays fixed for the whole run.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "mem/pool.hpp"
#include "warped/channel.hpp"
#include "warped/comm.hpp"
#include "warped/gvt.hpp"
#include "warped/lp.hpp"
#include "warped/lp_runtime.hpp"
#include "warped/stats.hpp"
#include "warped/throttle.hpp"
#include "warped/types.hpp"

namespace pls::obs {
class ObsSession;
}

namespace pls::warped {

struct KernelConfig {
  std::uint32_t num_nodes = 1;
  /// Simulation horizon: LPs must not schedule events beyond this.
  SimTime end_time = 1000;

  /// CPU cost charged per executed event batch (models the granularity of
  /// the paper's generated VHDL processes).  0 = no artificial cost.
  std::uint64_t event_cost_ns = 0;

  /// Inter-node communication model (see comm.hpp).
  NetworkModel network;

  /// Send-side coalescing (channel.hpp): per-destination buffers flushed
  /// as one Batch per destination at LTSF-burst end (plus the size/age
  /// bounds).  Committed results are bit-identical enabled or disabled;
  /// disabled routes every message as a one-message batch for clean
  /// comparisons.
  CoalesceConfig coalesce;

  /// Wall-clock interval between GVT round starts.
  std::uint64_t gvt_interval_us = 2000;

  /// State-saving period: snapshot after every Nth batch (1 = classic
  /// copy-state-every-event; >1 = periodic saving with coast-forward).
  std::uint32_t state_period = 1;

  /// Optimism throttling: never execute events beyond GVT + window.  The
  /// window is sized per `throttle.mode` (adaptive by default — a per-node
  /// feedback loop on the observed rollback fraction; see throttle.hpp).
  /// `optimism_window` is the fixed window in kFixed mode and the initial
  /// window in kAdaptive mode; 0 means unbounded / start fully open.
  ThrottleConfig throttle;
  SimTime optimism_window = 0;

  /// LTSF batching: up to this many lowest-timestamp batches execute per
  /// main-loop iteration (window limit re-checked between batches), so the
  /// mailbox-poll / GVT-join overhead is amortized over several executions.
  std::uint32_t max_batches_per_poll = 8;

  /// Per-node live-entry limit emulating the paper's 128 MB workstations
  /// (s15850 on 2 nodes ran out of memory).  0 = unlimited.
  std::size_t max_live_entries_per_node = 0;

  /// Deadlock watchdog: if neither GVT nor the global executed-event count
  /// changes for this long, abort the run with RunStats::stalled set and
  /// dump per-node / per-LP diagnostics to stderr.  0 disables it.
  std::uint64_t watchdog_timeout_ms = 30000;

  /// Observability session (src/obs/): per-node trace rings + metrics
  /// gauges.  Non-owning, may be null (the default — tracing off costs the
  /// hot path one pointer test); must outlive run().  The kernel only
  /// records — the caller starts/stops the sampler and exports.
  obs::ObsSession* obs = nullptr;
};

class Kernel {
 public:
  /// `lps[i]` is the behaviour of LP id i (non-owning; must outlive run()).
  /// `node_of[i]` maps LP i to a node in [0, cfg.num_nodes).
  Kernel(std::vector<LogicalProcess*> lps, std::vector<std::uint32_t> node_of,
         KernelConfig cfg);
  ~Kernel();

  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  /// Run the simulation to completion (or OOM / watchdog abort, reported
  /// in the returned stats); single use.
  RunStats run();

 private:
  struct Cluster;

  void init_all_lps();
  /// One node's main loop: the steps below, in this order, until done.
  void node_main(std::uint32_t node);
  void gvt_join(Cluster& cl);  ///< join a newly started GVT round
  void controller_poll(std::uint64_t now_ns);  ///< node 0's GVT duties
  void fossil_round(Cluster& cl);  ///< once per newly completed round
  void receive(Cluster& cl);  ///< drain the mailbox, deliver what is due
  void route(Cluster& cl);    ///< insert or buffer everything pending
  /// Up to max_batches_per_poll LTSF batches, each routed at once; false
  /// when none ran.  Sets `blocked_by_window` when the optimism window
  /// stopped the burst.
  bool execute_burst(Cluster& cl, bool& blocked_by_window);
  /// Run `lp`'s next batch (at `t`, set here); its sends join cl.pending,
  /// muted during a coast-forward replay.  The burst and the end-of-run
  /// drain both execute through it.  Returns the batch size.
  std::size_t execute_batch(Cluster& cl, LpId lp, SimTime& t);
  void flush(Cluster& cl);  ///< burst-end flush of the send buffers
  void publish_gauges(Cluster& cl) const;
  void idle(Cluster& cl, bool executed);  ///< poll accounting, yield or nap
  void watchdog_main();
  std::uint64_t total_exec_ticks() const noexcept;
  void dump_stall_diagnostics() const;  ///< post-mortem, single-threaded

  std::vector<LogicalProcess*> lps_;
  std::vector<std::uint32_t> node_of_;  ///< static LP→node map; routes
  KernelConfig cfg_;

  /// Inter-node transport: one batch mailbox per node.
  InProcChannel channel_;

  /// Per-node arenas for wide event payloads and state words.  Declared
  /// *before* runtimes_ on purpose: members destroy in reverse order, so
  /// every pooled block held by a runtime is freed before its pool dies.
  std::vector<std::unique_ptr<mem::Pool>> pools_;  // indexed by node
  std::vector<LpRuntime> runtimes_;          // indexed by LpId
  std::vector<std::unique_ptr<Cluster>> clusters_;  // indexed by node

  // GVT coordination (asynchronous; see gvt.hpp).
  GvtCoordinator gvt_coord_;
  std::atomic<bool> done_{false};
  std::atomic<bool> oom_{false};
  std::atomic<bool> stalled_{false};
  std::atomic<SimTime> gvt_{0};
  /// Rounds whose GVT estimate has been published (written by node 0).
  std::atomic<std::uint64_t> completed_rounds_{0};

  // Controller state, touched only by node 0's thread.
  std::uint64_t ctrl_started_rounds_ = 0;
  std::uint64_t ctrl_last_trigger_ns_ = 0;

  /// Batches executed during the watchdog's frozen-GVT window (written by
  /// the watchdog before it raises stalled_): 0 = deadlock, >0 = livelock.
  std::uint64_t stall_ticks_wasted_ = 0;

  /// The watchdog naps on watchdog_cv_ until run() sets watchdog_stop_
  /// (under watchdog_mu_) once the nodes are done, so the end of a run
  /// never waits out a nap.
  std::mutex watchdog_mu_;
  bool watchdog_stop_ = false;
  std::condition_variable watchdog_cv_;

  bool ran_ = false;
};

}  // namespace pls::warped
