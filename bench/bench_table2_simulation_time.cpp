// Reproduces paper Table 2: "Simulation Time (in secs) for the different
// partitioning algorithms" — sequential time plus the parallel wall-clock
// time of all six strategies on s5378 / s9234 / s15850 at 2, 4, 6 and 8
// nodes.
//
// Expected shape (paper §5): "the multilevel strategy performs better than
// other strategies when the number of processors employed lie between 8
// (4 workstations) and 16 (8 workstations)"; parallel simulation on 8
// nodes with multilevel runs in less than half the sequential time.  The
// paper's s15850 run on 2 nodes ran out of memory — pass
// --oom-limit to emulate the 128 MB workstations and reproduce that cell
// as "-".

#include <cstdio>

#include "bench_common.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace pls;

  util::Cli cli("Table 2 — simulation time for all partitioning algorithms");
  bench::add_common_flags(cli);
  cli.add_flag("oom-limit",
               "per-node live-entry limit emulating 128 MB workstations "
               "(0 = unlimited)",
               "0");
  if (!cli.parse(argc, argv)) return 1;
  const bench::BenchConfig cfg =
      bench::config_from_cli(cli, [&](bench::BenchConfig& c) {
        c.driver.max_live_entries_per_node = static_cast<std::size_t>(
            cli.get_u64("oom-limit", 0, std::uint64_t{1} << 40));
      });

  const auto cells = bench::sweep_cells(cfg);
  std::vector<std::string> header{"Circuit", "Seq Time", "Nodes"};
  for (const auto& cell : cells) header.push_back(cell.label);
  util::AsciiTable table(header);
  util::CsvWriter csv(cfg.csv_dir + "/table2_simulation_time.csv",
                      {"circuit", "seq_seconds", "nodes", "strategy",
                       "throttle", "activity", "seconds", "oom", "lanes",
                       "events_per_s", "trans_per_s",
                       "trans_per_s_per_lane"});

  for (const char* name : {"s5378", "s9234", "s15850"}) {
    const circuit::Circuit c = bench::make_benchmark(name, cfg);
    const double seq = bench::run_sequential_averaged(c, cfg);
    std::printf("%s: sequential %.2fs\n", name, seq);
    std::fflush(stdout);

    table.add_rule();
    bool first_row = true;
    for (std::uint32_t nodes : {2u, 4u, 6u, 8u}) {
      std::vector<std::string> row{
          first_row ? name : "", first_row ? util::AsciiTable::num(seq) : "",
          std::to_string(nodes)};
      first_row = false;
      for (const auto& cell : cells) {
        const auto avg = bench::run_parallel_averaged(
            c, cfg, cell.strategy, nodes, cell.throttle, cell.activity);
        row.push_back(avg.out_of_memory
                          ? "-"
                          : util::AsciiTable::num(avg.wall_seconds));
        const double wall = avg.wall_seconds > 0 ? avg.wall_seconds : 1e-9;
        const double ev_s = avg.committed / wall;
        const double tr_s = avg.committed_transitions / wall;
        csv.row({name, util::AsciiTable::num(seq, 4),
                 std::to_string(nodes), cell.strategy,
                 warped::to_string(cell.throttle), cell.activity,
                 util::AsciiTable::num(avg.wall_seconds, 4),
                 avg.out_of_memory ? "1" : "0", std::to_string(avg.last.lanes),
                 util::AsciiTable::num(ev_s, 1),
                 util::AsciiTable::num(tr_s, 1),
                 util::AsciiTable::num(tr_s / avg.last.lanes, 1)});
        std::fflush(stdout);
      }
      table.add_row(row);
    }
  }

  std::printf("Table 2 — Simulation time (seconds) per strategy\n%s",
              table.render().c_str());
  std::printf("CSV: %s\n", csv.path().c_str());
  return 0;
}
