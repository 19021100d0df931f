#pragma once
// Shared infrastructure for the paper-reproduction harnesses.
//
// Every table/figure binary runs the one modeled testbed
// (framework::kTestbed; docs/ARCHITECTURE.md, "Modeled testbed and
// stand-ins") and the same circuit construction, so the numbers across
// tables and figures are mutually consistent, exactly as they were
// produced by one testbed in the paper.
//
// Common flags (all binaries):
//   --scale S     shrink circuits to S × their published size (default 1.0;
//                 use 0.25 for a quick smoke run)
//   --end T       virtual-time horizon (default 1200)
//   --repeats N   runs averaged per cell (paper used 5; default 1 here)
//   --seed X      master seed
//   --csv DIR     directory for CSV output (default ".")

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "circuit/circuit.hpp"
#include "framework/driver.hpp"
#include "util/cli.hpp"

namespace pls::bench {

struct BenchConfig {
  double scale = 1.0;
  std::uint32_t repeats = 1;
  std::string csv_dir = ".";

  /// Throttle mode spec from --throttle: "auto" (fixed when --window > 0,
  /// adaptive otherwise, preserving the historical --window semantics) or
  /// any comma-separated list of adaptive|fixed|unlimited — benches with
  /// throttle-mode columns sweep the list.
  std::string throttle = "auto";
  /// Activity-guided partitioning spec from --activity: comma-separated
  /// list of off|profile (see DriverConfig::use_activity).  Benches with
  /// activity column groups sweep the list; "profile" only applies to the
  /// multilevel strategies.
  std::string activity = "off";
  /// Drifting stimulus (--drift): shift the hot input cone at half the
  /// horizon (ModelOptions::stim_drift_at = end_time / 2), the workload
  /// any static partition ages under.
  bool drift = false;

  /// Observability (--trace / --metrics-interval): when trace_path is
  /// non-empty every measured parallel run records a kernel trace and the
  /// last repeat of each sweep cell is exported as Perfetto JSON (the cell
  /// label is inserted before the extension) plus a metrics CSV next to
  /// it.  metrics_interval_ms sizes the background sampler cadence; 0
  /// with tracing on defaults to 10 ms, 0 with tracing off disables obs.
  std::string trace_path;
  std::uint64_t metrics_interval_ms = 0;

  /// What the other common flags set: --end, --seed, the testbed costs,
  /// --window, --rollback-budget, --batch, --coalesce, --gvt-us,
  /// --stim-period, --clock-period (with the clock phase at half the
  /// period), --lanes (model.lanes; throughput columns then report
  /// committed lane transitions/sec next to events/sec), and a bench's
  /// --oom-limit (the per-node live-entry cap that emulates the paper's
  /// 128 MB workstations).  driver_config() starts every run from it.
  framework::DriverConfig driver;
};

/// Register the common flags on a Cli.
void add_common_flags(util::Cli& cli);

/// Extract a BenchConfig after cli.parse(), then run `extra` on it: a
/// bench's own flag reads and checks.  A bad flag value or a failed check
/// in either, or a --csv that is not an existing directory, prints one
/// "error: ..." line on stderr and exits with status 2.
BenchConfig config_from_cli(
    const util::Cli& cli,
    const std::function<void(BenchConfig&)>& extra = nullptr);

/// Resolve cfg.throttle into concrete kernel modes ("auto" expands using
/// cfg.driver.optimism_window; a comma-separated list expands in order,
/// deduped).
std::vector<warped::ThrottleMode> throttle_modes(const BenchConfig& cfg);

/// Resolve cfg.activity into concrete driver modes ("off" / "profile"),
/// deduped, order-preserving; rejects unknown tokens.
std::vector<std::string> activity_modes(const BenchConfig& cfg);

/// Fail fast unless --activity is plain "off" — for benches that build
/// their own weighting variants (the ablations) and would otherwise
/// silently ignore or corrupt the flag.
void require_activity_off(const BenchConfig& cfg, const char* bench_name);

/// Configure one activity mode on a driver config.
void apply_activity(framework::DriverConfig& dc, const std::string& mode);

/// One cell of a (throttle × activity × strategy) sweep.  Activity modes
/// other than "off" only pair with the weight-consuming strategies, so a
/// sweep stays honest: no silently-ignored use_activity cells.
struct SweepCell {
  warped::ThrottleMode throttle;
  std::string activity;
  std::string strategy;
  /// "Strategy[@throttle][+activity]" column header
  std::string label;
};

/// Cross product of --throttle and --activity with the per-mode strategy
/// sets; suffixes appear in labels only for dimensions actually swept.
std::vector<SweepCell> sweep_cells(const BenchConfig& cfg);

/// The paper's three benchmarks, scaled.  scale=1 reproduces Table 1's
/// exact interface counts.
circuit::Circuit make_benchmark(const std::string& name,
                                const BenchConfig& cfg);

/// The paper's six strategies in presentation order, plus "MultilevelHG"
/// (the native hypergraph partitioner) for head-to-head comparison.
const std::vector<std::string>& strategies();

/// Driver config for one parallel run: cfg.driver with the strategy, the
/// node count, the drift horizon and obs set.  Resolves a multi-mode
/// --throttle list to its FIRST mode and leaves --activity off; sweeping
/// benches override both per SweepCell (via run_parallel_averaged /
/// apply_activity), and ablation-style benches that cannot honor
/// --activity fail fast through require_activity_off.
framework::DriverConfig driver_config(const BenchConfig& cfg,
                                      const std::string& partitioner,
                                      std::uint32_t nodes);

/// Averaged parallel run (repeats > 1 reruns with distinct stimulus seeds,
/// like the paper's five-repetition averages).
struct AveragedRun {
  double wall_seconds = 0.0;
  double app_messages = 0.0;
  double rollbacks = 0.0;
  double committed = 0.0;
  double anti_messages = 0.0;
  double events_processed = 0.0;
  double events_rolled_back = 0.0;
  double throttle_shrinks = 0.0;
  double throttle_grows = 0.0;
  /// Committed lane transitions (popcount-weighted sends): with --lanes N
  /// one committed event carries up to N of these, so transitions/sec is
  /// the batching speedup metric.
  double committed_transitions = 0.0;
  bool out_of_memory = false;
  framework::DriverResult last;  ///< static metrics of the last repeat

  /// events_rolled_back / events_processed — the wasted-work ratio the
  /// adaptive throttle targets (0 when nothing was processed).
  double rollback_fraction() const noexcept {
    return events_processed > 0 ? events_rolled_back / events_processed : 0.0;
  }
};

/// Every sweeping bench names its cell explicitly (one call per
/// SweepCell: throttle mode + activity mode + strategy).
AveragedRun run_parallel_averaged(const circuit::Circuit& c,
                                  const BenchConfig& cfg,
                                  const std::string& partitioner,
                                  std::uint32_t nodes,
                                  warped::ThrottleMode mode,
                                  const std::string& activity_mode);

/// Averaged sequential reference run.
double run_sequential_averaged(const circuit::Circuit& c,
                               const BenchConfig& cfg);

/// Export a finished run's obs artifacts (no-op when cfg.trace_path is
/// empty or the run carried no session): Perfetto trace JSON at
/// cfg.trace_path with `.{sanitized cell_label}` inserted before the
/// extension, and the metrics series at `<that path>.metrics.csv`.
void export_obs_artifacts(const BenchConfig& cfg,
                          const framework::DriverResult& res,
                          const std::string& cell_label);

}  // namespace pls::bench
