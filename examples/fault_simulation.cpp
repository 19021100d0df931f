// Example: concurrent stuck-at fault simulation on the batched engine —
// the classic use of bit-parallel logic simulation.  Lane 0 runs the
// fault-free circuit; lane i+1 runs the same stimulus with fault i's gate
// output forced to a constant.  All 64 scenarios share one event stream
// (uniform stimulus), so a fault costs almost nothing until its effect
// diverges — and the primary outputs accumulate which lanes ever differed
// from lane 0, which is exactly the detected-fault set.
//
// Counts above 63 widen the run past one value word (multi-word lanes,
// logicsim/lanes.hpp): 255 faults + the reference lane fill four words.
//
//   ./examples/fault_simulation [--circuit s5378] [--faults 63]
//                               [--nodes 4] [--end 1200] [--scale 0.5]

#include <cstdio>

#include "circuit/generator.hpp"
#include "framework/driver.hpp"
#include "logicsim/equivalence.hpp"
#include "logicsim/lanes.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) try {
  using namespace pls;

  util::Cli cli("fault_simulation: 63 stuck-at faults per batched run");
  cli.add_flag("circuit", "s5378 | s9234 | s15850", "s5378");
  cli.add_flag("faults", "stuck-at faults per run (1-255)", "63");
  cli.add_flag("nodes", "number of nodes", "4");
  cli.add_flag("end", "virtual-time horizon", "1200");
  cli.add_flag("scale", "circuit size multiplier", "0.5");
  cli.add_flag("seed", "stimulus seed (uniform across lanes)", "2000");
  cli.add_flag("fault-seed", "fault-site sampling seed", "9");
  if (!cli.parse(argc, argv)) return 1;

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
  cfg.model.uniform_stimulus = true;  // lanes differ only via their faults
  cfg.model.faults = logicsim::sample_faults(
      c, cli.get_u64("faults", 1, 255),
      cli.get_u64("fault-seed", 0, ~std::uint64_t{0} >> 1));
  cfg.model.lanes =
      static_cast<std::uint32_t>(cfg.model.faults.size()) + 1;

  std::printf(
      "%s (x%.2f, %zu gates): %zu stuck-at faults + fault-free lane 0, "
      "%u nodes\n\n",
      cli.get("circuit").c_str(), scale, c.size(), cfg.model.faults.size(),
      cfg.num_nodes);

  // Optimistic run, verified against the batched sequential reference —
  // fault detection inherits Time Warp's correctness guarantees.
  const auto seq = framework::run_sequential(c, cfg);
  const auto par = framework::run_parallel(c, cfg);
  const auto eq = logicsim::check_equivalence(par.run, seq);
  if (!eq.ok()) {
    std::fprintf(stderr, "backend equivalence failure: %s\n",
                 eq.describe().c_str());
    return 2;
  }

  const auto detected = logicsim::detected_faults(
      c, cfg.model.faults, par.run.final_states, cfg.model.lanes);
  util::AsciiTable table({"Fault", "Gate", "Stuck at", "Detected"});
  std::size_t covered = 0;
  for (std::size_t i = 0; i < cfg.model.faults.size(); ++i) {
    const auto& f = cfg.model.faults[i];
    covered += detected[i] ? 1 : 0;
    table.add_row({std::to_string(i), c.gate_name(f.gate),
                   f.stuck_value ? "1" : "0", detected[i] ? "yes" : "no"});
  }
  std::printf("%s", table.render().c_str());
  std::printf("\ncoverage: %zu / %zu faults detected (%.1f%%) in %.3fs "
              "(one batched run, %llu events)\n",
              covered, cfg.model.faults.size(),
              100.0 * static_cast<double>(covered) /
                  static_cast<double>(cfg.model.faults.size()),
              par.run.wall_seconds,
              static_cast<unsigned long long>(
                  par.run.totals.events_committed));
  return 0;
} catch (const pls::util::FlagError& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
