// Example/utility: .bench netlist round-trip tool.
//
// Generates the paper's benchmark stand-ins as real .bench files (so they
// can be inspected or fed to other EDA tools), or validates + summarizes an
// existing .bench file.
//
//   ./examples/bench_tool --emit s9234 --out /tmp/s9234.bench
//   ./examples/bench_tool /path/to/netlist.bench

#include <cstdio>
#include <sstream>

#include "circuit/bench_io.hpp"
#include "circuit/circuit_stats.hpp"
#include "circuit/generator.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) try {
  using namespace pls;

  util::Cli cli("bench_tool: emit or inspect ISCAS'89 .bench netlists");
  cli.add_flag("emit", "generate a benchmark stand-in "
                       "(s5378 | s9234 | s15850 | none)",
               "none");
  cli.add_flag("out", "output path for --emit", "circuit.bench");
  cli.add_flag("seed", "generator seed", "2000");
  if (!cli.parse(argc, argv)) return 1;

  if (cli.get("emit") != "none") {
    const circuit::Circuit c = circuit::make_iscas_like(
        cli.get("emit"), cli.get_u64("seed", 0, ~std::uint64_t{0} >> 1));
    circuit::write_bench_file(cli.get("out"), c);
    std::ostringstream os;
    os << circuit::compute_stats(c);
    std::printf("wrote %s: %s\n", cli.get("out").c_str(), os.str().c_str());
    return 0;
  }

  if (cli.positional().empty()) {
    std::fprintf(stderr, "%s", cli.usage().c_str());
    return 1;
  }
  for (const auto& path : cli.positional()) {
    try {
      const circuit::Circuit c = circuit::parse_bench_file(path);
      std::ostringstream os;
      os << circuit::compute_stats(c);
      std::printf("%s: OK — %s\n", path.c_str(), os.str().c_str());
    } catch (const std::exception& e) {
      std::printf("%s: INVALID — %s\n", path.c_str(), e.what());
      return 2;
    }
  }
  return 0;
} catch (const pls::util::FlagError& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
