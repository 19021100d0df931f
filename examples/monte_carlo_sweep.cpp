// Example: Monte Carlo stimulus sweep with the bit-parallel batched
// engine — N independent random-stimulus scenarios (lanes) advance through
// one simulation, each event carrying a 64-bit value word plus the mask of
// lanes that changed.  The run is verified three ways: the optimistic
// parallel run commits exactly the batched sequential results, sampled
// lanes are bit-identical to independent scalar runs with their lane
// seeds, and the committed-transition total matches the scalar runs' sum.
//
//   ./examples/monte_carlo_sweep [--circuit s9234] [--lanes 64]
//                                [--nodes 4] [--end 1200] [--scale 0.5]

#include <cstdio>
#include <numeric>
#include <set>

#include "circuit/generator.hpp"
#include "framework/driver.hpp"
#include "logicsim/equivalence.hpp"
#include "logicsim/lanes.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) try {
  using namespace pls;

  util::Cli cli("monte_carlo_sweep: N stimulus scenarios per run, verified");
  cli.add_flag("circuit", "s5378 | s9234 | s15850", "s9234");
  cli.add_flag("lanes", "bit-parallel scenarios per run (1-256)", "64");
  cli.add_flag("nodes", "number of nodes", "4");
  cli.add_flag("end", "virtual-time horizon", "1200");
  cli.add_flag("scale", "circuit size multiplier", "0.5");
  cli.add_flag("seed", "base stimulus seed (lane j uses lane_seed(seed,j))",
               "2000");
  if (!cli.parse(argc, argv)) return 1;
  const auto lanes = static_cast<std::uint32_t>(
      cli.get_u64("lanes", 1, logicsim::kMaxLanes));

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
  cfg.model.lanes = lanes;
  cfg.model.stim_period = 50;

  std::printf("%s (x%.2f, %zu gates): %u scenarios per run on %u nodes\n\n",
              cli.get("circuit").c_str(), scale, c.size(), lanes,
              cfg.num_nodes);

  // Batched runs on both backends; the Time Warp run must commit exactly
  // the sequential results, full lane words included.
  const auto seq = framework::run_sequential(c, cfg);
  const auto par = framework::run_parallel(c, cfg);
  const auto eq = logicsim::check_equivalence(par.run, seq);
  if (!eq.ok()) {
    std::fprintf(stderr, "backend equivalence failure: %s\n",
                 eq.describe().c_str());
    return 2;
  }

  // Spot-check the lane-equivalence contract: the first, middle and last
  // lanes each project onto an independent scalar run with their seed.
  std::uint64_t scalar_transitions_sampled = 0;
  double scalar_seconds = 0.0;
  unsigned lanes_checked = 0;
  for (unsigned lane : std::set<unsigned>{0u, lanes / 2, lanes - 1}) {
    framework::DriverConfig scalar = cfg;
    scalar.model.lanes = 1;
    scalar.seed = logicsim::lane_seed(cfg.seed, lane);
    const auto ref = framework::run_sequential(c, scalar);
    scalar_seconds += ref.wall_seconds;
    scalar_transitions_sampled += std::accumulate(
        ref.per_lp_sends.begin(), ref.per_lp_sends.end(), std::uint64_t{0});
    const auto rep = logicsim::check_lane_equivalence(
        c, par.run.final_states, lane, lanes, ref.final_states);
    if (!rep.ok()) {
      std::fprintf(stderr, "lane %u diverged from its scalar run: %s\n",
                   lane, rep.describe().c_str());
      return 2;
    }
    ++lanes_checked;
  }

  const std::uint64_t batched_transitions = std::accumulate(
      seq.per_lp_sends.begin(), seq.per_lp_sends.end(), std::uint64_t{0});
  // Extrapolate the scalar baseline from the sampled lanes: running all N
  // scenarios one-at-a-time costs roughly N/(sampled) times the sampled
  // total, since every scalar run simulates the same circuit and horizon.
  const double scalar_total_est =
      scalar_seconds * static_cast<double>(lanes) / lanes_checked;

  util::AsciiTable table({"Run", "Time(s)", "Events/s", "Transitions/s"});
  auto rate = [](double x, double secs) {
    return util::AsciiTable::num(secs > 0 ? x / secs : 0.0, 0);
  };
  table.add_row({"batched seq", util::AsciiTable::num(seq.wall_seconds, 3),
                 rate(static_cast<double>(seq.events_processed),
                      seq.wall_seconds),
                 rate(static_cast<double>(batched_transitions),
                      seq.wall_seconds)});
  table.add_row(
      {"batched TW", util::AsciiTable::num(par.run.wall_seconds, 3),
       rate(static_cast<double>(par.run.totals.events_committed),
            par.run.wall_seconds),
       rate(static_cast<double>(batched_transitions), par.run.wall_seconds)});
  table.add_row({std::to_string(lanes) + " scalar runs (est)",
                 util::AsciiTable::num(scalar_total_est, 3),
                 rate(static_cast<double>(batched_transitions),
                      scalar_total_est),
                 rate(static_cast<double>(batched_transitions),
                      scalar_total_est)});
  std::printf("%s", table.render().c_str());
  std::printf(
      "\n%u lanes verified against scalar references; batched run carries "
      "%.1f transitions per committed word\n",
      lanes_checked,
      batched_transitions > 0 && seq.events_processed > 0
          ? static_cast<double>(batched_transitions) /
                static_cast<double>(seq.events_processed)
          : 0.0);
  std::printf("batching speedup over one-scenario-at-a-time: %.1fx\n",
              seq.wall_seconds > 0 ? scalar_total_est / seq.wall_seconds
                                   : 0.0);
  return 0;
} catch (const pls::util::FlagError& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
