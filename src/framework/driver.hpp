#pragma once
// SimulationDriver: the end-to-end pipeline of the paper's framework
// (Figure 3): circuit → runtime elaboration into LPs → runtime partitioning
// (strategy chosen by name) → parallel Time Warp simulation → statistics.
//
// The driver is what every example and benchmark harness calls; its
// defaults encode the modeled-testbed calibration (docs/ARCHITECTURE.md,
// "Modeled testbed and stand-ins"): event grain ≈ 1.5 µs, message send
// overhead ≈ 3 µs, network latency ≈ 50 µs — the paper's fast-Ethernet
// NOW regime where communication is ~30× an event grain.

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

struct DriverConfig {
  std::uint32_t num_nodes = 2;
  std::string partitioner = "Multilevel";
  std::uint64_t seed = 2000;          ///< partitioning / stimulus seed
  warped::SimTime end_time = 2000;    ///< virtual-time horizon

  /// Bit-parallel stimulus lanes in [1, 256] (authoritative; copied over
  /// model.lanes).  Every count runs the same word-wise LPs; counts above
  /// 64 span multiple value words per signal (logicsim::lane_words),
  /// carried through the arena-pooled event/state extensions.  Lane j of a
  /// run is bit-identical to a one-lane run with seed lane_seed(seed, j) —
  /// see logicsim/lanes.hpp; fault-simulation runs set model.faults and
  /// model.uniform_stimulus on top.
  std::uint32_t lanes = 1;

  logicsim::ModelOptions model;

  // Modeled testbed (see header comment).
  std::uint64_t event_cost_ns = 1500;
  std::uint64_t send_overhead_ns = 3000;
  std::uint64_t latency_ns = 50000;

  /// Send coalescing (warped/channel.hpp): per-destination batching of
  /// inter-node messages on the LTSF-burst path, flushed as one Batch
  /// per destination.  On by default; committed results are bit-identical
  /// either way (off routes each message as a one-message batch), so the
  /// knob exists for A/B runs, not correctness.
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

  /// Stimulus lanes the run was batched over (DriverConfig::lanes).
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
