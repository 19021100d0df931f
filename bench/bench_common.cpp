#include "bench_common.hpp"

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <iostream>

#include "circuit/generator.hpp"
#include "framework/registry.hpp"
#include "logicsim/lanes.hpp"
#include "obs/export.hpp"
#include "util/check.hpp"

namespace pls::bench {
namespace {

/// Split a comma-separated mode spec, dedup order-preserving; `resolve`
/// validates each token (failing fast on junk) and may rewrite it.
std::vector<std::string> split_modes(
    const std::string& flag, const std::string& spec,
    const std::function<std::string(const std::string&)>& resolve) {
  std::vector<std::string> modes;
  std::size_t start = 0;
  while (start <= spec.size()) {
    const std::size_t comma = spec.find(',', start);
    const std::string tok =
        spec.substr(start, comma == std::string::npos ? std::string::npos
                                                      : comma - start);
    const std::string mode = resolve(tok);
    if (std::find(modes.begin(), modes.end(), mode) == modes.end()) {
      modes.push_back(mode);
    }
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  PLS_CHECK_MSG(!modes.empty(), "--" << flag << ": empty mode list");
  return modes;
}

}  // namespace

void add_common_flags(util::Cli& cli) {
  cli.add_flag("scale", "circuit size multiplier (1.0 = paper sizes)", "1.0");
  cli.add_flag("end", "virtual-time horizon", "1200");
  cli.add_flag("repeats", "runs averaged per cell", "1");
  cli.add_flag("seed", "master seed", "2000");
  cli.add_flag("csv", "directory for CSV output", ".");
  cli.add_flag("event-cost-ns", "CPU cost per event batch",
               std::to_string(framework::kTestbed.event_cost_ns));
  cli.add_flag("send-overhead-ns", "CPU cost per inter-node message",
               std::to_string(framework::kTestbed.send_overhead_ns));
  cli.add_flag("latency-ns", "inter-node delivery latency",
               std::to_string(framework::kTestbed.latency_ns));
  cli.add_flag("window", "optimism window in virtual time (0 = unbounded)",
               "0");
  cli.add_flag("throttle",
               "optimism throttle mode(s): auto | adaptive | fixed | "
               "unlimited, comma-separated for mode columns",
               "auto");
  cli.add_flag("activity",
               "activity-guided partitioning mode(s): off | profile, "
               "comma-separated for unweighted-vs-activity columns",
               "off");
  cli.add_flag("drift",
               "shift the hot input cone at half the horizon (drifting "
               "stimulus)",
               "false");
  cli.add_flag("rollback-budget",
               "adaptive throttle: target rolled-back/processed fraction",
               "0.2");
  cli.add_flag("batch", "LTSF batches per kernel poll", "8");
  cli.add_flag("coalesce",
               "per-destination send batching on the inter-node channel "
               "(false = flush every message as a one-message batch)",
               "true");
  cli.add_flag("gvt-us", "wall-clock microseconds between GVT rounds",
               "2000");
  cli.add_flag("lanes",
               "bit-parallel stimulus lanes: Monte Carlo scenarios per "
               "run, 1 to 256",
               "1");
  cli.add_flag("stim-period", "virtual time between input vectors", "50");
  cli.add_flag("clock-period", "flip-flop clock period", "10");
  cli.add_flag("trace",
               "write Perfetto trace JSON here (sweep cells insert their "
               "label before the extension; empty = off)",
               "");
  cli.add_flag("metrics-interval",
               "metrics sampling interval in ms (0 = off, or 10 when "
               "--trace is set)",
               "0");
}

namespace {

/// config_from_cli's reads and checks; a bad flag throws.
BenchConfig read_config(const util::Cli& cli) {
  BenchConfig cfg;
  framework::DriverConfig& d = cfg.driver;
  cfg.scale = cli.get_double("scale", 0.0, 4.0);
  // Checked reads: every one of these lands in an unsigned config field, so
  // a negative (or absurdly large) value would otherwise wrap silently.
  d.end_time = cli.get_u64("end", 1, std::uint64_t{1} << 60);
  cfg.repeats = static_cast<std::uint32_t>(cli.get_u64("repeats", 1, 100000));
  d.seed = cli.get_u64("seed", 0, ~std::uint64_t{0} >> 1);
  cfg.csv_dir = cli.get("csv");
  d.event_cost_ns = cli.get_u64("event-cost-ns", 0, 1'000'000'000);
  d.send_overhead_ns = cli.get_u64("send-overhead-ns", 0, 1'000'000'000);
  d.latency_ns = cli.get_u64("latency-ns", 0, 10'000'000'000ull);
  d.optimism_window = cli.get_u64("window", 0, std::uint64_t{1} << 60);
  cfg.throttle = cli.get("throttle");
  cfg.activity = cli.get("activity");
  cfg.drift = cli.get_bool("drift");
  d.throttle.target_rollback_fraction = cli.get_double("rollback-budget");
  d.max_batches_per_poll =
      static_cast<std::uint32_t>(cli.get_u64("batch", 1, 1 << 20));
  d.coalesce = cli.get_bool("coalesce");
  // Capped well below the kernel's 30 s deadlock watchdog: a GVT interval
  // longer than the watchdog window guarantees a false stall abort.
  d.gvt_interval_us = cli.get_u64("gvt-us", 1, 10'000'000);
  d.model.lanes =
      static_cast<std::uint32_t>(cli.get_u64("lanes", 1, logicsim::kMaxLanes));
  d.model.stim_period = cli.get_u64("stim-period", 1, 1u << 30);
  d.model.clock_period = cli.get_u64("clock-period", 1, 1u << 30);
  d.model.clock_phase = d.model.clock_period / 2;
  cfg.trace_path = cli.get("trace");
  cfg.metrics_interval_ms = cli.get_u64("metrics-interval", 0, 60'000);
  const double budget = d.throttle.target_rollback_fraction;
  PLS_CHECK_MSG(budget > 0.0 && budget < 1.0,
                "--rollback-budget must be in (0, 1)");
  PLS_CHECK_MSG(std::filesystem::is_directory(cfg.csv_dir),
                "--csv must name an existing directory, got '"
                    << cfg.csv_dir << "'");
  throttle_modes(cfg);  // fail fast on a malformed --throttle spec
  activity_modes(cfg);  // ... and on a malformed --activity spec
  return cfg;
}

}  // namespace

BenchConfig config_from_cli(const util::Cli& cli,
                            const std::function<void(BenchConfig&)>& extra) {
  try {
    BenchConfig cfg = read_config(cli);
    if (extra) extra(cfg);
    return cfg;
  } catch (const std::exception& e) {
    // A CheckError reads "check failed: (expr) at file:line — message";
    // the user needs only the message.
    std::string msg = e.what();
    const std::string dash = " — ";
    if (const auto at = msg.find(dash); at != std::string::npos) {
      msg.erase(0, at + dash.size());
    }
    std::cerr << "error: " << msg << '\n';
    std::exit(2);
  }
}

std::vector<std::string> activity_modes(const BenchConfig& cfg) {
  return split_modes("activity", cfg.activity, [](const std::string& tok) {
    PLS_CHECK_MSG(tok == "off" || tok == "profile",
                  "--activity: unknown mode '" << tok
                                               << "' (want off|profile)");
    return tok;
  });
}

void require_activity_off(const BenchConfig& cfg, const char* bench_name) {
  PLS_CHECK_MSG(cfg.activity == "off",
                bench_name << " builds its own weighting variants and does "
                              "not sweep --activity (got '"
                           << cfg.activity
                           << "'); use bench_partition_quality or the "
                              "fig456/table2 harnesses instead");
}

void apply_activity(framework::DriverConfig& dc, const std::string& mode) {
  dc.use_activity = mode != "off";
}

std::vector<SweepCell> sweep_cells(const BenchConfig& cfg) {
  const auto tmodes = throttle_modes(cfg);
  const auto amodes = activity_modes(cfg);
  std::vector<SweepCell> cells;
  for (const auto& act : amodes) {
    for (const auto tmode : tmodes) {
      for (const auto& strategy : strategies()) {
        if (act != "off" && !framework::strategy_consumes_weights(strategy)) {
          continue;
        }
        SweepCell cell{tmode, act, strategy, strategy};
        if (tmodes.size() > 1) {
          cell.label += std::string("@") + warped::to_string(tmode);
        }
        if (amodes.size() > 1 && act != "off") cell.label += "+" + act;
        cells.push_back(std::move(cell));
      }
    }
  }
  return cells;
}

std::vector<warped::ThrottleMode> throttle_modes(const BenchConfig& cfg) {
  const auto names =
      split_modes("throttle", cfg.throttle, [&](const std::string& tok) {
        warped::ThrottleMode mode;
        if (tok == "auto") {
          // Historical semantics: --window N used to mean a fixed window.
          mode = cfg.driver.optimism_window > 0
                     ? warped::ThrottleMode::kFixed
                     : warped::ThrottleMode::kAdaptive;
        } else {
          PLS_CHECK_MSG(warped::parse_throttle_mode(tok, &mode),
                        "--throttle: unknown mode '"
                            << tok
                            << "' (want auto|adaptive|fixed|unlimited)");
        }
        return std::string(warped::to_string(mode));
      });
  std::vector<warped::ThrottleMode> modes;
  for (const auto& name : names) {
    warped::ThrottleMode mode;
    PLS_CHECK(warped::parse_throttle_mode(name, &mode));
    modes.push_back(mode);
  }
  return modes;
}


circuit::Circuit make_benchmark(const std::string& name,
                                const BenchConfig& cfg) {
  return circuit::generate(
      circuit::scale_spec(circuit::iscas_spec(name, cfg.driver.seed),
                          cfg.scale));
}

const std::vector<std::string>& strategies() {
  // The registry's listing is already in the paper's presentation order
  // (plus the hypergraph partitioner); sharing it means a strategy added
  // there automatically appears in every bench harness.
  return framework::partitioner_names();
}

framework::DriverConfig driver_config(const BenchConfig& cfg,
                                      const std::string& partitioner,
                                      std::uint32_t nodes) {
  framework::DriverConfig dc = cfg.driver;
  dc.partitioner = partitioner;
  dc.num_nodes = nodes;
  dc.throttle.mode = throttle_modes(cfg).front();
  // Drifting stimulus: the hot input cone shifts at half the horizon.
  // Applied here so the sequential reference sees the identical workload.
  dc.model.stim_drift_at = cfg.drift ? dc.end_time / 2 : 0;
  dc.obs.trace = !cfg.trace_path.empty();
  dc.obs.metrics_interval_us = cfg.metrics_interval_ms * 1000;
  if (dc.obs.trace && dc.obs.metrics_interval_us == 0) {
    dc.obs.metrics_interval_us = 10'000;  // tracing implies a 10 ms sampler
  }
  // --activity is deliberately NOT applied here: partition-only and
  // ablation callers build their own weighting, and silently activity-
  // weighting their baseline rows would corrupt the comparison.  Sweeping
  // callers go through apply_activity / run_parallel_averaged per cell.
  return dc;
}

AveragedRun run_parallel_averaged(const circuit::Circuit& c,
                                  const BenchConfig& cfg,
                                  const std::string& partitioner,
                                  std::uint32_t nodes,
                                  warped::ThrottleMode mode,
                                  const std::string& activity_mode) {
  AveragedRun avg;
  framework::DriverConfig base = driver_config(cfg, partitioner, nodes);
  base.throttle.mode = mode;
  apply_activity(base, activity_mode);
  for (std::uint32_t r = 0; r < cfg.repeats; ++r) {
    framework::DriverConfig dc = base;
    dc.seed = base.seed + r;  // paper: repeated five times, averaged
    framework::DriverResult res = framework::run_parallel(c, dc);
    avg.wall_seconds += res.run.wall_seconds;
    avg.app_messages +=
        static_cast<double>(res.run.totals.inter_node_messages);
    avg.rollbacks += static_cast<double>(res.run.totals.total_rollbacks());
    avg.committed += static_cast<double>(res.run.totals.events_committed);
    avg.anti_messages +=
        static_cast<double>(res.run.totals.anti_messages_sent);
    avg.events_processed +=
        static_cast<double>(res.run.totals.events_processed);
    avg.events_rolled_back +=
        static_cast<double>(res.run.totals.events_rolled_back);
    avg.throttle_shrinks +=
        static_cast<double>(res.run.totals.throttle_shrinks);
    avg.throttle_grows +=
        static_cast<double>(res.run.totals.throttle_grows);
    for (const auto& lp : res.run.per_lp) {
      avg.committed_transitions +=
          static_cast<double>(lp.sends_committed);
    }
    avg.out_of_memory |= res.run.out_of_memory;
    avg.last = std::move(res);
  }
  const double n = static_cast<double>(cfg.repeats);
  avg.wall_seconds /= n;
  avg.app_messages /= n;
  avg.rollbacks /= n;
  avg.committed /= n;
  avg.anti_messages /= n;
  avg.events_processed /= n;
  avg.events_rolled_back /= n;
  avg.throttle_shrinks /= n;
  avg.throttle_grows /= n;
  avg.committed_transitions /= n;
  export_obs_artifacts(cfg, avg.last,
                       partitioner + "_" + warped::to_string(mode) +
                           (activity_mode != "off" ? "_" + activity_mode
                                                   : std::string()) +
                           "_n" + std::to_string(nodes));
  return avg;
}

void export_obs_artifacts(const BenchConfig& cfg,
                          const framework::DriverResult& res,
                          const std::string& cell_label) {
  if (cfg.trace_path.empty() || res.obs == nullptr) return;
  std::string label = cell_label;
  for (char& ch : label) {
    const bool ok = (ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z') ||
                    (ch >= '0' && ch <= '9') || ch == '_' || ch == '-';
    if (!ok) ch = '_';
  }
  // Insert the cell label before the extension (after the last '.' in the
  // file name, not in a directory component).
  std::string path = cfg.trace_path;
  const std::size_t slash = path.find_last_of('/');
  const std::size_t dot = path.find_last_of('.');
  if (dot != std::string::npos &&
      (slash == std::string::npos || dot > slash)) {
    path.insert(dot, "." + label);
  } else {
    path += "." + label;
  }
  obs::write_perfetto_trace_file(path, *res.obs);
  obs::write_metrics_csv_file(path + ".metrics.csv", *res.obs);
}

double run_sequential_averaged(const circuit::Circuit& c,
                               const BenchConfig& cfg) {
  double total = 0.0;
  for (std::uint32_t r = 0; r < cfg.repeats; ++r) {
    framework::DriverConfig dc = driver_config(cfg, "Multilevel", 1);
    dc.seed += r;
    total += framework::run_sequential(c, dc).wall_seconds;
  }
  return total / static_cast<double>(cfg.repeats);
}

}  // namespace pls::bench
