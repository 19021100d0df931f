// Example: the paper's core experiment on one circuit — run the optimistic
// parallel simulation under every partitioning strategy at a chosen node
// count, verify each run against the sequential reference, and print the
// Table-2-style comparison row.
//
//   ./examples/parallel_vs_sequential [--circuit s9234] [--nodes 8]
//                                     [--end 1200] [--scale 0.5]

#include <cstdio>

#include "circuit/generator.hpp"
#include "framework/driver.hpp"
#include "framework/registry.hpp"
#include "logicsim/equivalence.hpp"
#include "obs/export.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) try {
  using namespace pls;

  util::Cli cli("parallel_vs_sequential: one Table 2 row, verified");
  cli.add_flag("circuit", "s5378 | s9234 | s15850", "s9234");
  cli.add_flag("nodes", "number of nodes", "8");
  cli.add_flag("end", "virtual-time horizon", "1200");
  cli.add_flag("scale", "circuit size multiplier", "0.5");
  cli.add_flag("seed", "seed", "2000");
  cli.add_flag("throttle", "optimism throttle: adaptive | fixed | unlimited",
               "adaptive");
  cli.add_flag("window",
               "optimism window (fixed mode) / initial window (adaptive)",
               "0");
  cli.add_flag("trace",
               "write a Perfetto trace of the Multilevel row here (plus "
               "metrics CSV at <path>.metrics.csv; empty = off)",
               "");
  cli.add_flag("metrics-interval",
               "metrics sampling interval in ms for the traced run (1 ms "
               "default: smoke-scale runs finish in tens of ms)",
               "1");
  if (!cli.parse(argc, argv)) return 1;
  warped::ThrottleMode throttle_mode;
  if (!warped::parse_throttle_mode(cli.get("throttle"), &throttle_mode)) {
    std::fprintf(stderr, "unknown --throttle mode '%s'\n",
                 cli.get("throttle").c_str());
    return 1;
  }

  const double scale = cli.get_double("scale", 0.0, 4.0);
  const circuit::GeneratorSpec spec = circuit::scale_spec(
      circuit::iscas_spec(cli.get("circuit"),
                          cli.get_u64("seed", 0, ~std::uint64_t{0} >> 1)),
      scale);
  const circuit::Circuit c = circuit::generate(spec);

  framework::DriverConfig cfg;
  cfg.num_nodes =
      static_cast<std::uint32_t>(cli.get_u64("nodes", 1, c.size()));
  cfg.end_time = cli.get_u64("end", 1, std::uint64_t{1} << 60);
  cfg.seed = spec.seed;
  cfg.model.stim_period = 50;
  cfg.throttle.mode = throttle_mode;
  cfg.optimism_window = cli.get_u64("window", 0, std::uint64_t{1} << 60);
  const std::string trace_path = cli.get("trace");
  const std::uint64_t metrics_ms = cli.get_u64("metrics-interval", 0, 60'000);

  const auto seq = framework::run_sequential(c, cfg);
  std::printf(
      "%s (x%.2f) on %u nodes, %s throttle — sequential: %.3fs, %llu "
      "events\n\n",
      cli.get("circuit").c_str(), scale, cfg.num_nodes,
      warped::to_string(cfg.throttle.mode), seq.wall_seconds,
      static_cast<unsigned long long>(seq.events_processed));

  util::AsciiTable table({"Strategy", "Time(s)", "Speedup", "Rollbacks",
                          "AppMsgs", "Verified"});
  for (const auto& name : framework::partitioner_names()) {
    cfg.partitioner = name;
    // Trace exactly one row — the paper's headline strategy — so the
    // artifact shows a single run, not six concatenated ones.
    const bool traced = !trace_path.empty() && name == "Multilevel";
    cfg.obs = obs::ObsConfig{};
    if (traced) {
      cfg.obs.trace = true;
      cfg.obs.metrics_interval_us = metrics_ms * 1000;
    }
    const auto res = framework::run_parallel(c, cfg);
    if (traced && res.obs != nullptr) {
      if (obs::write_perfetto_trace_file(trace_path, *res.obs)) {
        std::printf("trace written to %s\n", trace_path.c_str());
      }
      obs::write_metrics_csv_file(trace_path + ".metrics.csv", *res.obs);
    }
    const auto eq = logicsim::check_equivalence(res.run, seq);
    table.add_row(
        {name, util::AsciiTable::num(res.run.wall_seconds, 3),
         util::AsciiTable::num(seq.wall_seconds / res.run.wall_seconds, 2),
         std::to_string(res.run.totals.total_rollbacks()),
         std::to_string(res.run.totals.inter_node_messages),
         eq.ok() ? "yes" : ("NO: " + eq.describe())});
    if (!eq.ok()) {
      std::fprintf(stderr, "equivalence failure under %s!\n", name.c_str());
      return 2;
    }
  }
  std::printf("%s", table.render().c_str());
  return 0;
} catch (const pls::util::FlagError& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
