// Example: build a netlist programmatically with the Circuit API, write it
// out in ISCAS'89 .bench format, simulate it, and inspect the waveform-ish
// final state.  The circuit is a 4-bit ripple "toggle chain": each DFF
// toggles when all lower bits are 1 — a miniature counter whose expected
// final state can be reasoned about by hand.
//
//   ./examples/custom_circuit [--end 400]

#include <cstdio>

#include "circuit/bench_io.hpp"
#include "circuit/circuit.hpp"
#include "framework/driver.hpp"
#include "logicsim/equivalence.hpp"
#include "logicsim/netlist_lps.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) try {
  using namespace pls;
  using circuit::GateType;

  util::Cli cli("custom_circuit: hand-built counter through the full stack");
  cli.add_flag("end", "virtual-time horizon", "400");
  if (!cli.parse(argc, argv)) return 1;

  // --- build a 4-bit toggle-chain counter ---------------------------------
  circuit::Circuit c("counter4");
  const auto en = c.add_input("en");
  std::vector<circuit::GateId> bits;
  std::vector<circuit::GateId> xors;
  circuit::GateId carry = en;  // toggle bit i when en & bits[0..i-1]
  for (int i = 0; i < 4; ++i) {
    const auto ff =
        c.add_gate("q" + std::to_string(i), GateType::kDff);
    const auto x =
        c.add_gate("x" + std::to_string(i), GateType::kXor, {ff, carry});
    c.connect(ff, x);  // D = Q xor carry
    bits.push_back(ff);
    xors.push_back(x);
    if (i < 3) {
      carry = c.add_gate("c" + std::to_string(i), GateType::kAnd,
                         {carry, ff});
    }
  }
  for (auto ff : bits) c.mark_output(ff);
  c.freeze();

  // --- show it in .bench form ----------------------------------------------
  std::printf("netlist:\n%s\n",
              circuit::write_bench_string(c).c_str());

  // --- simulate in parallel on 2 nodes and verify --------------------------
  framework::DriverConfig cfg;
  cfg.num_nodes = 2;
  cfg.partitioner = "Multilevel";
  cfg.end_time = cli.get_u64("end", 1, std::uint64_t{1} << 60);
  cfg.model.stim_period = 40;
  const auto par = framework::run_parallel(c, cfg);
  const auto seq = framework::run_sequential(c, cfg);
  const auto eq = logicsim::check_equivalence(par.run, seq);

  std::printf("simulated to t=%llu on 2 nodes: %llu committed events, "
              "%llu rollbacks — %s\n",
              static_cast<unsigned long long>(cfg.end_time),
              static_cast<unsigned long long>(par.run.totals.events_committed),
              static_cast<unsigned long long>(par.run.totals.total_rollbacks()),
              eq.describe().c_str());

  std::printf("final counter bits (q3..q0): ");
  for (int i = 3; i >= 0; --i) {
    std::printf("%d",
                logicsim::output_bit(par.run.final_states[bits[i]]) ? 1 : 0);
  }
  std::printf("\n");
  return eq.ok() ? 0 : 2;
} catch (const pls::util::FlagError& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
