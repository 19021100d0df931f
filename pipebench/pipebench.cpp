// pipebench: the pipeline benchmark.  One process runs one workload as a
// closed loop of cold pipeline iterations (generate → partition →
// elaborate → simulate → verify), host-native (modeled event, send and
// latency costs 0), for a fixed wall-clock budget, and prints medians.
//
//   pipebench --workload scalar-ml-k2 --seed 2000 --seconds 30 --trace 0
//
// Every layer is timed from outside, around its public entry point, with
// spans recorded by this file (harness.hpp).  --trace 0 prints the
// end-to-end metrics; --trace 1 alternates kernel-traced and untraced
// iterations and prints the per-layer metrics.  The last stdout line is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
// README.md explains the workloads, the metrics and their bounds.

#include <sys/resource.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "circuit/generator.hpp"
#include "framework/driver.hpp"
#include "framework/registry.hpp"
#include "harness.hpp"
#include "hypergraph/multilevel_hg_partitioner.hpp"
#include "logicsim/equivalence.hpp"
#include "logicsim/lanes.hpp"
#include "logicsim/netlist_lps.hpp"
#include "logicsim/sequential.hpp"
#include "multilevel/balance.hpp"
#include "obs/session.hpp"
#include "partition/metrics.hpp"
#include "partition/multilevel_partitioner.hpp"
#include "util/check.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/timer.hpp"
#include "warped/kernel.hpp"

#ifndef PIPEBENCH_BUILD_TYPE
#define PIPEBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace pls;
using pipebench::SpanLog;

/// One benchmark workload.  All run s15850 ×1 (10,994 gates); a zero
/// horizon means the pipeline stops after elaboration (no simulation).
struct Workload {
  const char* name;
  const char* partitioner;
  std::uint32_t k;
  std::uint32_t lanes;
  warped::SimTime horizon;
};

// Why these three: README.md.  Horizons size each simulation to 400-500k
// committed events (a few tenths of a second).
constexpr Workload kWorkloads[] = {
    {"scalar-ml-k2", "Multilevel", 2, 1, 6000},
    {"lanes256-ml-k2", "Multilevel", 2, 256, 1200},
    {"partition-hg-k8", "MultilevelHG", 8, 1, 0},
};
constexpr const char* kCircuit = "s15850";
/// Generator seed of the circuit, and partitioner seed of the simulating
/// workloads.  Both stay fixed because they swing the work itself:
/// generator seeds 1-10 gave e2e_s 0.31-1.66 s, and graph Multilevel k=2
/// seeds gave comm_volume 655-1670 on one circuit.  --seed varies the
/// stimulus (and the partitioner of the partition-only workload).
constexpr std::uint64_t kFixedSeed = 2000;
/// A run cycles its iterations through this many sub-seeds derived from
/// --seed, so its medians cover many inputs: MultilevelHG k=8 work differs
/// by up to 1.5x between seeds.  A run stops only at the end of a cycle, so
/// every sub-seed weighs the same whatever the program's speed; one
/// untraced cycle takes about 30 s on the slowest workload (lanes256-ml-k2).
constexpr std::uint64_t kSubSeeds = 32;

/// Lanes checked against scalar twins once per lanes256 process.
constexpr unsigned kTwinLanes[] = {0, 128, 255};

struct MetricDef {
  const char* name;
  const char* unit;
};

/// Printed with --trace 0 (tracing off), on every workload.  Wall times
/// on a shared host swing by a third within minutes, so the pipeline's
/// time enters as e2e_rel: the median over iterations of e2e_s / ref_s,
/// ref_s being the reference pass run just before the iteration
/// (harness.hpp ReferenceSort).  setup_s stays in seconds.
constexpr MetricDef kEndToEnd[] = {
    {"e2e_rel", "ratio"},       {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},     {"verified_frac", "ratio"},
    {"comm_volume", "count"},
};
/// Shown in the --trace 0 report only.  sim_s and lane_events_per_s exist
/// on the simulating workloads alone, and the JSON line carries the same
/// metrics on every workload.
constexpr MetricDef kReport[] = {
    {"e2e_s", "s"},
    {"ref_s", "s"},
};
constexpr MetricDef kSimReport[] = {
    {"sim_s", "s"},
    {"lane_events_per_s", "1/s"},
};
/// Printed with --trace 1.  A layer that a workload does not run reads 0.
constexpr MetricDef kPerLayer[] = {
    {"circuit.generate_s", "s"},
    {"partition.run_s", "s"},
    {"partition.levels", "count"},
    {"partition.coarsest_size", "count"},
    {"partition.comm_volume", "count"},
    {"partition.edge_cut", "count"},
    {"partition.imbalance", "ratio"},
    {"partition.initial_quality", "count"},
    {"logicsim.build_model_s", "s"},
    {"logicsim.seq_s", "s"},
    {"logicsim.seq_ns_per_lane_event", "ns"},
    {"logicsim.verify_s", "s"},
    {"warped.run_s", "s"},
    {"warped.lane_events_per_s", "1/s"},
    {"warped.ns_per_committed_event", "ns"},
    {"warped.exec_s", "s"},
    {"warped.fossil_s", "s"},
    {"warped.gvt_cycles", "count"},
    {"warped.idle_sleeps", "count"},
    {"warped.rollback_frac", "ratio"},
    {"warped.rollbacks", "count"},
    {"warped.anti_messages", "count"},
    {"warped.inter_node_messages", "count"},
    {"warped.msgs_per_batch", "count"},
    {"warped.events_committed", "count"},
    {"warped.peak_live_entries", "count"},
    {"mem.pool_slab_bytes", "bytes"},
    {"mem.pool_blocks_recycled", "count"},
    {"mem.pool_heap_fallbacks", "count"},
    {"obs.trace_overhead", "ratio"},
    {"obs.ring_dropped", "count"},
    {"bench.self_s", "s"},
    {"circuit.self_s", "s"},
    {"partition.self_s", "s"},
    {"logicsim.self_s", "s"},
    {"warped.self_s", "s"},
};

/// One iteration's measurements, keyed by metric name.
using Row = std::map<std::string, double>;
/// Per-metric samples over a run's iterations.
using Columns = std::map<std::string, std::vector<double>>;

/// The kernel configuration framework::run_parallel builds for a default
/// DriverConfig, with the modeled testbed costs set to 0 (host-native).
warped::KernelConfig host_native_config(const Workload& w) {
  const framework::DriverConfig d;
  warped::KernelConfig kc;
  kc.num_nodes = w.k;
  kc.end_time = w.horizon;
  kc.event_cost_ns = 0;
  kc.network.send_overhead_ns = 0;
  kc.network.latency_ns = 0;
  kc.coalesce.enabled = d.coalesce;
  kc.coalesce.max_batch_msgs = d.coalesce_max_batch;
  kc.gvt_interval_us = d.gvt_interval_us;
  kc.state_period = d.state_period;
  kc.throttle = d.throttle;
  kc.optimism_window = d.optimism_window;
  kc.max_batches_per_poll = d.max_batches_per_poll;
  kc.max_live_entries_per_node = d.max_live_entries_per_node;
  kc.watchdog_timeout_ms = d.watchdog_timeout_ms;
  return kc;
}

/// `run_traced` of whichever multilevel pipeline `strategy` is.
partition::Partition run_traced(const partition::Partitioner& strategy,
                                const circuit::Circuit& c, std::uint32_t k,
                                std::uint64_t seed, multilevel::Trace* trace) {
  if (const auto* g =
          dynamic_cast<const partition::MultilevelPartitioner*>(&strategy)) {
    return g->run_traced(c, k, seed, trace);
  }
  const auto* h =
      dynamic_cast<const hypergraph::MultilevelHGPartitioner*>(&strategy);
  PLS_CHECK_MSG(h != nullptr, strategy.name() << " has no run_traced");
  return h->run_traced(c, k, seed, trace);
}

std::uint64_t fnv1a(const std::vector<std::uint32_t>& xs) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::uint32_t x : xs) {
    for (int b = 0; b < 4; ++b) {
      h ^= (x >> (8 * b)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

/// Restart the kernel's peak-RSS (VmHWM) count at the current RSS, so each
/// iteration reads its own peak.  Best effort: without /proc the reading
/// falls back to the process-lifetime peak.
void reset_peak_rss() {
  std::ofstream("/proc/self/clear_refs") << "5";
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB → MiB
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// Sum of the kernel's exec / fossil trace spans, plus ring accounting.
struct RingSums {
  double exec_s = 0.0;
  double fossil_s = 0.0;
  std::uint64_t dropped = 0;
  std::uint64_t max_recorded = 0;
};

RingSums read_rings(const obs::ObsSession& session) {
  RingSums out;
  for (std::uint32_t n = 0; n < session.num_nodes(); ++n) {
    const obs::TraceRing* ring = session.ring(n);
    if (ring == nullptr) continue;  // tracing off
    out.dropped += ring->dropped();
    out.max_recorded = std::max(out.max_recorded, ring->recorded());
    for (const obs::TraceEvent& ev : ring->snapshot()) {
      if (ev.kind == obs::TraceKind::kExecBatch) {
        out.exec_s += static_cast<double>(ev.dur_ns) * 1e-9;
      } else if (ev.kind == obs::TraceKind::kFossil) {
        out.fossil_s += static_cast<double>(ev.dur_ns) * 1e-9;
      }
    }
  }
  return out;
}

std::size_t next_pow2(std::uint64_t x) {
  std::size_t p = 16;
  while (p < x) p <<= 1;
  return p;
}

class Runner {
 public:
  Runner(const Workload& w, SpanLog& log) : w_(w), log_(log) {}

  /// One cold pipeline iteration on sub-seed `seed`; returns "" when
  /// verified, else why not.  `traced` turns on kernel tracing and the
  /// partitioners' level trace; `twins` also checks kTwinLanes against
  /// scalar sequential twins.
  std::string iterate(std::uint64_t iter, std::uint64_t seed, bool traced,
                      bool twins, Row& row);

  /// Trace-ring capacity (events per node) of traced iterations, grown
  /// to four times the busiest ring seen so far.
  std::size_t ring_capacity = obs::ObsConfig{}.ring_capacity;
  /// Most events one ring recorded in a timed traced iteration.
  std::uint64_t busiest_ring = 0;

 private:
  const Workload& w_;
  SpanLog& log_;
  /// Assignment hash per partitioner seed, from its first iteration.
  std::map<std::uint64_t, std::uint64_t> assign_hash_;
};

std::string Runner::iterate(std::uint64_t iter, std::uint64_t seed,
                            bool traced, bool twins, Row& row) {
  // --seed drives the partitioner only where the partition is the output.
  const std::uint64_t part_seed = w_.horizon == 0 ? seed : kFixedSeed;
  log_.begin("circuit.generate", iter);
  const circuit::Circuit c = circuit::make_iscas_like(kCircuit, kFixedSeed);
  log_.end();

  log_.begin("partition", iter);
  const auto strategy = framework::make_partitioner(w_.partitioner);
  multilevel::Trace mtrace;
  log_.begin("partition.run", iter);
  const partition::Partition p =
      traced ? run_traced(*strategy, c, w_.k, part_seed, &mtrace)
             : strategy->run(c, w_.k, part_seed);
  log_.end();
  log_.begin("partition.metrics", iter);
  p.validate(c.size());
  row["comm_volume"] = static_cast<double>(partition::comm_volume(c, p));
  row["partition.edge_cut"] = static_cast<double>(partition::edge_cut(c, p));
  row["partition.imbalance"] = partition::imbalance(c, p);
  log_.end();
  log_.end();
  row["partition.comm_volume"] = row["comm_volume"];
  if (traced) {
    row["partition.levels"] = static_cast<double>(mtrace.level_sizes.size());
    row["partition.coarsest_size"] = static_cast<double>(
        mtrace.level_sizes.empty() ? c.size() : mtrace.level_sizes.back());
    row["partition.initial_quality"] =
        static_cast<double>(mtrace.initial_quality);
  }

  logicsim::ModelOptions mo;
  mo.stim_seed = seed;
  mo.lanes = w_.lanes;
  log_.begin("logicsim.build_model", iter);
  const logicsim::SimModel model = logicsim::build_model(c, mo);
  log_.end();

  if (w_.horizon == 0) {
    // Partition-only workload: the produced partition is the output.
    log_.begin("partition.verify", iter);
    const std::uint64_t limit = multilevel::balance_limit(
        c.size(), w_.k, partition::MultilevelOptions{}.balance_tol);
    std::uint64_t max_load = 0;
    for (const std::uint64_t l : p.loads()) max_load = std::max(max_load, l);
    const std::uint64_t h = fnv1a(p.assign);
    const std::uint64_t first =
        assign_hash_.try_emplace(part_seed, h).first->second;
    log_.end();
    if (max_load > limit) {
      return "part load " + std::to_string(max_load) + " over balance limit " +
             std::to_string(limit);
    }
    if (h != first) return "assignment hash changed between iterations";
    return "";
  }

  warped::KernelConfig kc = host_native_config(w_);
  std::unique_ptr<obs::ObsSession> session;
  warped::RunStats run;
  log_.begin("warped.kernel", iter);
  {
    if (traced) {
      obs::ObsConfig oc;
      oc.trace = true;
      oc.ring_capacity = ring_capacity;
      session = std::make_unique<obs::ObsSession>(w_.k, oc);
      kc.obs = session.get();
    }
    warped::Kernel kernel(model.behaviours(), p.assign, kc);
    log_.begin("warped.run", iter);
    run = kernel.run();
    log_.end();
  }
  log_.end();

  log_.begin("logicsim.seq", iter);
  const logicsim::SeqStats seq =
      logicsim::simulate_sequential(model.behaviours(), w_.horizon);
  log_.end();
  log_.begin("logicsim.verify", iter);
  const logicsim::EquivalenceReport eq = logicsim::check_equivalence(run, seq);
  log_.end();

  const warped::NodeStats& t = run.totals;
  std::uint64_t lane_work = 0;
  for (const warped::LpStats& lp : run.per_lp) {
    lane_work += lp.lane_work_committed;
  }
  std::uint64_t seq_lane_work = 0;
  for (const std::uint64_t x : seq.per_lp_lane_work) seq_lane_work += x;
  row["lane_work"] = static_cast<double>(lane_work);
  row["seq_lane_work"] = static_cast<double>(seq_lane_work);
  row["warped.events_committed"] = static_cast<double>(t.events_committed);
  row["warped.gvt_cycles"] = static_cast<double>(run.gvt_cycles);
  row["warped.idle_sleeps"] = static_cast<double>(t.idle_sleeps);
  row["warped.rollback_frac"] =
      t.events_processed == 0 ? 0.0
                              : static_cast<double>(t.events_rolled_back) /
                                    static_cast<double>(t.events_processed);
  row["warped.rollbacks"] = static_cast<double>(t.total_rollbacks());
  row["warped.anti_messages"] = static_cast<double>(t.anti_messages_sent);
  row["warped.inter_node_messages"] =
      static_cast<double>(t.inter_node_messages);
  row["warped.msgs_per_batch"] =
      t.batches_sent == 0 ? 0.0
                          : static_cast<double>(t.batch_msgs_sent) /
                                static_cast<double>(t.batches_sent);
  row["warped.peak_live_entries"] = static_cast<double>(t.peak_live_entries);
  row["mem.pool_slab_bytes"] = static_cast<double>(t.pool_slab_bytes);
  row["mem.pool_blocks_recycled"] =
      static_cast<double>(t.pool_blocks_recycled);
  row["mem.pool_heap_fallbacks"] = static_cast<double>(t.pool_heap_fallbacks);
  std::uint64_t ring_dropped = 0;
  if (session != nullptr) {
    const RingSums rs = read_rings(*session);
    row["warped.exec_s"] = rs.exec_s;
    row["warped.fossil_s"] = rs.fossil_s;
    row["obs.ring_dropped"] = static_cast<double>(rs.dropped);
    ring_dropped = rs.dropped;
    if (iter > 0) busiest_ring = std::max(busiest_ring, rs.max_recorded);
    // Headroom so later iterations keep every span through a heavier
    // rollback storm than this one.
    ring_capacity = std::max(ring_capacity, next_pow2(4 * rs.max_recorded));
  }

  if (run.stalled) return "kernel stalled (watchdog)";
  if (run.out_of_memory) return "kernel out of memory";
  if (!eq.ok()) return "parallel != sequential: " + eq.describe();
  // The warm-up (iteration 0) runs on the default rings to size them.
  if (ring_dropped > 0 && iter > 0) {
    return "trace rings dropped " + std::to_string(ring_dropped) +
           " events, so warped.exec_s and warped.fossil_s undercount";
  }
  if (twins) {
    for (const unsigned lane : kTwinLanes) {
      logicsim::ModelOptions tmo;
      tmo.stim_seed = logicsim::lane_seed(seed, lane);
      const logicsim::SimModel twin = logicsim::build_model(c, tmo);
      const logicsim::SeqStats ts =
          logicsim::simulate_sequential(twin.behaviours(), w_.horizon);
      const logicsim::EquivalenceReport le = logicsim::check_lane_equivalence(
          c, run.final_states, lane, w_.lanes, ts.final_states);
      if (!le.ok()) {
        return "lane " + std::to_string(lane) +
               " differs from its scalar twin: " + le.describe();
      }
    }
  }

  return "";
}

/// Span-derived metrics of iteration `iter`: stage times and per-layer
/// self times.
void add_span_metrics(const SpanLog& log, std::uint64_t iter, Row& row) {
  const std::vector<pipebench::Span> spans = log.iteration(iter);
  const auto sec = [&](const char* name) {
    return pipebench::span_seconds(spans, name);
  };
  row["e2e_s"] = sec("iteration");
  row["e2e_rel"] = row["e2e_s"] / row["ref_s"];
  row["setup_s"] =
      sec("circuit.generate") + sec("partition") + sec("logicsim.build_model");
  row["circuit.generate_s"] = sec("circuit.generate");
  row["partition.run_s"] = sec("partition.run");
  row["logicsim.build_model_s"] = sec("logicsim.build_model");
  row["logicsim.seq_s"] = sec("logicsim.seq");
  row["logicsim.verify_s"] = sec("logicsim.verify");
  row["warped.run_s"] = sec("warped.run");
  row["sim_s"] = row["warped.run_s"];

  const std::vector<double> self = pipebench::self_seconds(spans);
  for (const char* layer :
       {"bench", "circuit", "partition", "logicsim", "warped"}) {
    row[std::string(layer) + ".self_s"] = 0.0;
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    row[pipebench::layer_of(spans[i].name) + ".self_s"] += self[i];
  }

  const double sim = row["sim_s"];
  const double committed = row["warped.events_committed"];
  const double lane_work = row["lane_work"];
  const double seq_lane_work = row["seq_lane_work"];
  row["lane_events_per_s"] = sim > 0.0 ? lane_work / sim : 0.0;
  row["warped.lane_events_per_s"] = row["lane_events_per_s"];
  row["warped.ns_per_committed_event"] =
      committed > 0.0 ? sim * 1e9 / committed : 0.0;
  row["logicsim.seq_ns_per_lane_event"] =
      seq_lane_work > 0.0 ? row["logicsim.seq_s"] * 1e9 / seq_lane_work : 0.0;
}

void append(Columns& cols, const Row& row) {
  for (const auto& [name, v] : row) cols[name].push_back(v);
}

double column_median(const Columns& cols, const std::string& name) {
  const auto it = cols.find(name);
  return it == cols.end() || it->second.empty() ? 0.0
                                                : pipebench::median(it->second);
}

double column_sum(const Columns& cols, const std::string& name) {
  const auto it = cols.find(name);
  double total = 0.0;
  if (it != cols.end()) {
    for (const double x : it->second) total += x;
  }
  return total;
}

/// "name  median unit  (n=…, pXX=…, iqr=…%)" — the human-readable line.
void print_metric(const Columns& cols, const MetricDef& m, double value) {
  const auto it = cols.find(m.name);
  const std::size_t n = it == cols.end() ? 0 : it->second.size();
  std::printf("  %-34s %16.6g %-6s", m.name, value, m.unit);
  if (n > 0) {
    const double q = pipebench::tail_quantile(n);
    std::printf("  n=%zu", n);
    if (q > 0.0) {
      std::printf(" p%g=%.6g", q * 100.0, pipebench::quantile(it->second, q));
    }
    std::printf(" iqr=%.1f%%", pipebench::iqr_share(it->second) * 100.0);
  }
  std::printf("\n");
}

void write_spans(const std::string& path, const SpanLog& log) {
  std::ofstream out(path);
  util::JsonWriter j(out);
  j.begin_object().key("traceEvents").begin_array();
  const std::uint64_t t0 = log.spans().empty() ? 0 : log.spans()[0].start_ns;
  for (const pipebench::Span& s : log.spans()) {
    j.begin_object()
        .kv("name", s.name)
        .kv("ph", "X")
        .kv("pid", 1)
        .kv("tid", 1);
    j.key("ts").value(static_cast<double>(s.start_ns - t0) / 1e3, 3);
    j.key("dur").value(static_cast<double>(s.end_ns - s.start_ns) / 1e3, 3);
    j.key("args")
        .begin_object()
        .kv("iter", s.iter)
        .kv("id", s.id)
        .kv("parent", s.parent)
        .end_object();
    j.end_object();
  }
  j.end_array().end_object();
  out << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli("pipebench: closed-loop pipeline benchmark (see README.md)");
  cli.add_flag("workload", "scalar-ml-k2 | lanes256-ml-k2 | partition-hg-k8",
               "scalar-ml-k2");
  cli.add_flag("seed",
               "derives the stimulus seeds (and the partitioner seeds of "
               "partition-hg-k8)",
               "2000");
  cli.add_flag("seconds", "wall-clock budget of the timed iterations", "30");
  cli.add_flag("trace", "0 = end-to-end metrics, 1 = per-layer metrics", "0");
  cli.add_flag("spans-out", "with --trace 1: write the span log here", "");
  cli.add_flag("commit", "source revision recorded in the env line", "none");
  if (!cli.parse(argc, argv)) return 2;

  const Workload* w = nullptr;
  for (const Workload& cand : kWorkloads) {
    if (cli.get("workload") == cand.name) w = &cand;
  }
  if (w == nullptr) {
    std::fprintf(stderr, "unknown --workload '%s'\n",
                 cli.get("workload").c_str());
    return 2;
  }
  const std::int64_t seed_arg = cli.get_int("seed");
  const double seconds = cli.get_double("seconds");
  const std::int64_t trace_arg = cli.get_int("trace");
  if (seed_arg < 0 || !(seconds > 0.0) || (trace_arg != 0 && trace_arg != 1)) {
    std::fprintf(stderr, "need --seed >= 0, --seconds > 0, --trace 0|1\n");
    return 2;
  }
  const auto seed = static_cast<std::uint64_t>(seed_arg);
  const bool trace_mode = trace_arg == 1;
  std::map<std::string, const char*> units;
  for (const auto& set : {std::span<const MetricDef>(kEndToEnd),
                          std::span<const MetricDef>(kReport),
                          std::span<const MetricDef>(kSimReport),
                          std::span<const MetricDef>(kPerLayer)}) {
    for (const MetricDef& m : set) {
      PLS_CHECK(pipebench::valid_metric_name(m.name));
      units[m.name] = m.unit;
    }
  }

  std::printf(
      "env: nproc=%u compiler=\"%s\" build=%s commit=%s workload=%s "
      "seed=%llu seconds=%g trace=%d circuit=%s\n",
      std::thread::hardware_concurrency(), __VERSION__, PIPEBENCH_BUILD_TYPE,
      cli.get("commit").c_str(), w->name,
      static_cast<unsigned long long>(seed), seconds, trace_mode ? 1 : 0,
      kCircuit);
  std::fflush(stdout);

  SpanLog log;
  Runner runner(*w, log);
  pipebench::ReferenceSort ref;
  const bool simulates = w->horizon > 0;
  const bool twins = w->lanes > 1;
  // Traced mode alternates traced and untraced iterations, two per
  // sub-seed, so the trace overhead is a ratio of two medians over the
  // same inputs under the same conditions.
  const std::uint64_t per_seed = trace_mode ? 2 : 1;
  const std::uint64_t cycle = kSubSeeds * per_seed;
  const auto sub_seed = [&](std::uint64_t i) {
    return seed * kSubSeeds + i / per_seed % kSubSeeds;
  };

  // Warm-up: one discarded iteration.  It sizes the trace rings (traced
  // mode) and runs the once-per-process lane-twin check.
  pipebench::Tally warm;
  {
    Row row;
    log.begin("iteration", 0);
    pipebench::run_counted(warm, log, [&] {
      return runner.iterate(0, sub_seed(0), trace_mode, twins, row);
    });
    log.end();
  }

  // Timed iteration i is span iteration i + 1 (0 is the warm-up).  The
  // run ends at the end of a whole cycle of sub-seeds, the one nearest the
  // budget: it stops once half an average cycle more would pass it.
  pipebench::Tally tally;
  Columns traced_cols;
  Columns plain_cols;
  const util::WallTimer clock;
  for (std::uint64_t i = 0;; ++i) {
    const std::uint64_t iter = i + 1;
    const bool traced = trace_mode && i % 2 == 0;
    Row row;
    row["ref_s"] = ref.run_seconds();
    reset_peak_rss();
    log.begin("iteration", iter);
    pipebench::run_counted(tally, log, [&] {
      return runner.iterate(iter, sub_seed(i), traced, false, row);
    });
    log.end();
    row["peak_rss_mb"] = peak_rss_mb();
    add_span_metrics(log, iter, row);
    append(traced ? traced_cols : plain_cols, row);
    if (iter % cycle == 0) {
      const double t = clock.elapsed_seconds();
      const double per_cycle = t / static_cast<double>(iter / cycle);
      if (t + per_cycle / 2.0 >= seconds) break;
    }
  }

  const bool correct = warm.failed() == 0 && tally.failed() == 0;
  if (!correct) {
    std::printf("FAILED: %s\n", warm.failed() > 0
                                    ? warm.first_reason().c_str()
                                    : tally.first_reason().c_str());
  }

  std::map<std::string, double> out;
  if (!trace_mode) {
    std::printf("end-to-end (medians over timed iterations):\n");
    for (const MetricDef& m : kEndToEnd) {
      const std::string name = m.name;
      const double v = name == "verified_frac"
                           ? tally.verified_frac()
                           : column_median(plain_cols, name);
      print_metric(plain_cols, m, v);
      out[name] = v;
    }
    for (const MetricDef& m : kReport) {
      print_metric(plain_cols, m, column_median(plain_cols, m.name));
    }
    if (simulates) {
      for (const MetricDef& m : kSimReport) {
        print_metric(plain_cols, m, column_median(plain_cols, m.name));
      }
    }
  } else {
    const std::string basis = simulates ? "sim_s" : "e2e_s";
    const double plain = column_median(plain_cols, basis);
    std::printf(
        "per-layer (medians over traced iterations; obs.ring_dropped is "
        "their total):\n");
    for (const MetricDef& m : kPerLayer) {
      const std::string name = m.name;
      const double v = name == "obs.trace_overhead"
                           ? (plain > 0.0 ? column_median(traced_cols, basis) /
                                                plain
                                          : 0.0)
                       : name == "obs.ring_dropped"
                           ? column_sum(traced_cols, name)
                           : column_median(traced_cols, name);
      print_metric(traced_cols, m, v);
      out[name] = v;
    }
    if (simulates) {
      std::printf("trace rings: %zu events per node, busiest %llu\n",
                  runner.ring_capacity,
                  static_cast<unsigned long long>(runner.busiest_ring));
    }
    const std::string path = cli.get("spans-out");
    if (!path.empty()) {
      write_spans(path, log);
      std::printf("spans: %zu written to %s\n", log.spans().size(),
                  path.c_str());
    }
  }

  std::ostringstream js;
  util::JsonWriter j(js);
  j.begin_object()
      .kv("correct", correct)
      .kv("attempted", tally.attempted())
      .kv("failed", tally.failed());
  j.key("metrics").begin_object();
  for (const auto& [name, v] : out) {
    j.key(name).begin_object();
    j.key("value").value(v, 9);
    j.kv("unit", units.at(name)).end_object();
  }
  j.end_object().end_object();
  std::printf("%s\n", js.str().c_str());
  return 0;
}
