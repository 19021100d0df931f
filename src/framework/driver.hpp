#pragma once
// SimulationDriver: the end-to-end pipeline of the paper's framework
// (Figure 3): circuit → runtime elaboration into LPs → runtime partitioning
// (strategy chosen by name) → parallel Time Warp simulation → statistics.
// Every example and benchmark harness calls it.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "circuit/circuit.hpp"
#include "logicsim/netlist_lps.hpp"
#include "logicsim/sequential.hpp"
#include "obs/session.hpp"
#include "partition/multilevel_partitioner.hpp"
#include "partition/partition.hpp"
#include "warped/kernel.hpp"

namespace pls::framework {

/// The modeled testbed, defined once (docs/ARCHITECTURE.md, "Modeled
/// testbed and stand-ins"): DriverConfig's defaults and the bench flags'
/// defaults read it.  2 µs per event batch (a generated VHDL process),
/// 1.5 µs per inter-node send and 25 µs of wire latency: the paper's
/// fast-Ethernet regime, where a cut signal costs about a dozen event
/// grains.  All three at 0 give host-native runs.
struct Testbed {
  std::uint64_t event_cost_ns, send_overhead_ns, latency_ns;
};
inline constexpr Testbed kTestbed{2000, 1500, 25000};

struct DriverConfig {
  std::uint32_t num_nodes = 2;
  std::string partitioner = "Multilevel";
  /// Partition and stimulus seed (overwrites model.stim_seed).
  std::uint64_t seed = 2000;
  warped::SimTime end_time = 2000;    ///< virtual-time horizon

  /// model.lanes (1-256): lane j is bit-identical to a one-lane run with
  /// seed lane_seed(seed, j) (logicsim/lanes.hpp).
  logicsim::ModelOptions model;

  std::uint64_t event_cost_ns = kTestbed.event_cost_ns;
  std::uint64_t send_overhead_ns = kTestbed.send_overhead_ns;
  std::uint64_t latency_ns = kTestbed.latency_ns;

  /// Send coalescing (warped/channel.hpp): per-destination batching of
  /// inter-node messages, flushed as one Batch per destination.  Off sends
  /// one-message batches; committed results are identical either way.
  bool coalesce = true;
  /// Size bound per destination buffer (messages) before a forced flush.
  std::uint32_t coalesce_max_batch = 64;

  std::uint64_t gvt_interval_us = 2000;
  std::uint32_t state_period = 1;

  /// Optimism throttling (see warped/throttle.hpp): adaptive by default,
  /// with a settable rollback budget and window cap over fixed
  /// control-law constants; `optimism_window` is the fixed window in
  /// kFixed mode and the initial window in kAdaptive mode (0 = unbounded
  /// / horizon-derived start).
  warped::ThrottleConfig throttle;
  warped::SimTime optimism_window = 0;

  /// LTSF batches executed per kernel main-loop iteration.
  std::uint32_t max_batches_per_poll = 8;

  std::size_t max_live_entries_per_node = 0;
  std::uint64_t watchdog_timeout_ms = 30000;  ///< 0 disables the watchdog

  /// Activity-guided partitioning (paper §6 extension): a short sequential
  /// pre-run of the measured run's stimulus (logicsim::profile_activity)
  /// derives per-gate activity, and the (hyper)graph is re-weighted
  /// (multilevel::weights_from_activity) and partitioned with real
  /// work/traffic weights before the measured run.  Only the multilevel
  /// strategies consume weights — enabling this with any other strategy is
  /// a configuration error (PLS_CHECK_MSG names the offending strategy
  /// rather than silently ignoring the flag).
  bool use_activity = false;
  /// The pre-run covers end_time / kActivityHorizonDivisor of virtual
  /// time: long enough for steady-state switching rates, short next to
  /// the real run.  Activity maps to weights through the fixed caps in
  /// multilevel/weights.hpp.
  static constexpr warped::SimTime kActivityHorizonDivisor = 4;
  partition::MultilevelOptions multilevel;

  /// Observability (src/obs/): kernel tracing and/or background metrics
  /// sampling for the measured run.  Off by default; when enabled the
  /// finished session is handed back in DriverResult::obs for export.
  obs::ObsConfig obs;
};

struct DriverResult {
  partition::Partition partition;
  double partition_seconds = 0.0;  ///< time spent partitioning
  double activity_seconds = 0.0;  ///< pre-run + reweighting time

  // Static quality metrics of the chosen partition.
  std::uint64_t edge_cut = 0;
  std::uint64_t comm_volume = 0;
  double imbalance = 0.0;
  /// Imbalance under the activity work weights the partitioner actually
  /// optimized (equals `imbalance` when no weights were in play).
  double weighted_imbalance = 0.0;
  double concurrency = 0.0;

  /// The finished observability session (trace rings read-ready, sampler
  /// stopped), or null when DriverConfig::obs was off.  shared_ptr keeps
  /// DriverResult copyable; hand it to the obs:: exporters.
  std::shared_ptr<obs::ObsSession> obs;

  /// Stimulus lanes the run was batched over (DriverConfig::model.lanes).
  std::uint32_t lanes = 1;

  warped::RunStats run;

  /// Per-lane result extraction: the committed final states of one lane,
  /// projected onto the one-lane state layout
  /// (logicsim::extract_lane_states over run.final_states; the identity
  /// for a one-lane run of `c`).
  std::vector<warped::LpState> lane_states(const circuit::Circuit& c,
                                           unsigned lane) const {
    return logicsim::extract_lane_states(c, run.final_states, lane, lanes);
  }
};

/// The kernel configuration run_parallel simulates `cfg` with, before it
/// attaches the observability session: the one DriverConfig →
/// warped::KernelConfig translation.
warped::KernelConfig kernel_config(const DriverConfig& cfg);

/// Partition `c` with the configured strategy and simulate it in parallel.
DriverResult run_parallel(const circuit::Circuit& c, const DriverConfig& cfg);

/// Sequential reference run of the same model and horizon (the paper's
/// "Seq Time"); charges the same per-event CPU cost.
logicsim::SeqStats run_sequential(const circuit::Circuit& c,
                                  const DriverConfig& cfg);

/// Partition only (no simulation) — used by the static-quality benches.
DriverResult partition_only(const circuit::Circuit& c,
                            const DriverConfig& cfg);

}  // namespace pls::framework
