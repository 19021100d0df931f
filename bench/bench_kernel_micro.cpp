// Google-benchmark micro measurements of the kernel's primitive costs:
// gate evaluation, event queue insertion, batch commit + snapshot,
// rollback + cancellation, fossil collection, mailbox transfer, the whole
// kernel and the sequential reference on the s15850 stand-in, and the
// multilevel pipeline phases.
// These are the constants behind the macro-level tables (a committed event
// in the gate model costs a handful of these primitives).

#include <benchmark/benchmark.h>

#include <memory>

#include "circuit/generator.hpp"
#include "framework/driver.hpp"
#include "framework/registry.hpp"
#include "graph/weighted_graph.hpp"
#include "logicsim/gate_eval.hpp"
#include "logicsim/netlist_lps.hpp"
#include "logicsim/sequential.hpp"
#include "partition/coarsen.hpp"
#include "partition/initial.hpp"
#include "partition/partition.hpp"
#include "partition/refine.hpp"
#include "util/rng.hpp"
#include "warped/channel.hpp"
#include "warped/comm.hpp"
#include "warped/kernel.hpp"
#include "warped/lp_runtime.hpp"

namespace {

using namespace pls;

class NullLp final : public warped::LogicalProcess {
 public:
  void init(warped::Context&) override {}
  void execute(warped::Context&, warped::EventBatch) override {}
};

warped::Event make_event(warped::SimTime recv, std::uint64_t id) {
  warped::Event e;
  e.recv_time = recv;
  e.send_time = recv > 0 ? recv - 1 : 0;
  e.target = 0;
  e.sender = 1;
  e.id = id;
  return e;
}

void BM_GateEval(benchmark::State& state) {
  std::uint64_t in = 0x5a5a;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        logicsim::eval_gate(circuit::GateType::kNand, in, 4));
    in = (in << 1) | (in >> 63);
  }
}
BENCHMARK(BM_GateEval);

void BM_EventInsertOrdered(benchmark::State& state) {
  NullLp lp;
  std::uint64_t id = 1;
  warped::SimTime t = 1;
  warped::LpRuntime rt(0, &lp);
  for (auto _ : state) {
    rt.insert(make_event(t++, id++));
    if (rt.input_queue().size() > 4096) {
      state.PauseTiming();
      rt = warped::LpRuntime(0, &lp);
      state.ResumeTiming();
    }
  }
}
BENCHMARK(BM_EventInsertOrdered);

void BM_BatchCommitWithSnapshot(benchmark::State& state) {
  NullLp lp;
  warped::LpRuntime rt(0, &lp);
  warped::SimTime t = 1;
  std::uint64_t id = 1;
  for (auto _ : state) {
    rt.insert(make_event(t, id++));
    warped::SimTime bt = 0;
    const warped::EventBatch batch = rt.begin_batch(bt);
    rt.commit_batch(t, batch.size());
    ++t;
    if (t % 4096 == 0) {
      state.PauseTiming();
      rt.fossil_collect(t - 1);
      state.ResumeTiming();
    }
  }
}
BENCHMARK(BM_BatchCommitWithSnapshot);

/// Steady-state fossil collection over a node's worth of LPs: each of
/// 4096 runtimes executes one batch per round in round-robin order (as an
/// LTSF scheduler spreads work over a node's LPs), sending one event and
/// keeping two inputs queued ahead of its frontier, and a fossil_collect
/// pass over all of them follows each round with GVT one tick behind.
/// Every round commits one event per LP; the `per_event` counter is the
/// whole round's time (insert, execute, record, fossil) per committed
/// event, in seconds, which is what the queues' memory footprint shows
/// up in.
void BM_FossilSteadyState(benchmark::State& state) {
  constexpr warped::LpId kLps = 4096;
  NullLp lp;
  std::vector<warped::LpRuntime> rts;
  rts.reserve(kLps);
  std::uint64_t id = 1;
  for (warped::LpId i = 0; i < kLps; ++i) {
    rts.emplace_back(i, &lp);
    for (warped::SimTime t = 1; t <= 2; ++t) {
      warped::Event e = make_event(t, id++);
      e.target = i;
      rts.back().insert(e);
    }
  }
  warped::SimTime round = 1;
  std::uint64_t committed = 0;
  for (auto _ : state) {
    for (warped::LpRuntime& rt : rts) {
      warped::Event in = make_event(round + 2, id++);
      in.target = rt.id();
      rt.insert(std::move(in));
      warped::SimTime bt = 0;
      const warped::EventBatch batch = rt.begin_batch(bt);
      warped::Event out = make_event(bt + 1, rt.alloc_event_id());
      out.send_time = bt;
      out.sender = rt.id();
      out.target = (rt.id() + 1) % kLps;
      rt.record_output(out);
      rt.commit_batch(bt, batch.size());
    }
    for (warped::LpRuntime& rt : rts) {
      committed += rt.fossil_collect(round).committed_events;
    }
    ++round;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(committed));
  state.counters["per_event"] = benchmark::Counter(
      static_cast<double>(committed),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_FossilSteadyState);

void BM_RollbackDepth(benchmark::State& state) {
  const auto depth = static_cast<std::uint64_t>(state.range(0));
  NullLp lp;
  std::uint64_t id = 1;
  for (auto _ : state) {
    state.PauseTiming();
    warped::LpRuntime rt(0, &lp);
    for (std::uint64_t i = 1; i <= depth; ++i) {
      rt.insert(make_event(i * 2, id++));
    }
    for (std::uint64_t i = 0; i < depth; ++i) {
      warped::SimTime bt = 0;
      const warped::EventBatch batch = rt.begin_batch(bt);
      const warped::SimTime out_send = batch.front().recv_time;
      rt.commit_batch(out_send, batch.size());
      warped::Event out = make_event(out_send + 1, id++);
      out.send_time = out_send;
      out.sender = 0;
      out.target = 9;
      rt.record_output(out);
    }
    state.ResumeTiming();
    benchmark::DoNotOptimize(rt.insert(make_event(1, id++)));
  }
  state.SetLabel("rollback of " + std::to_string(depth) + " batches");
}
BENCHMARK(BM_RollbackDepth)->Arg(8)->Arg(64)->Arg(512);

// ---- comm fabric ----------------------------------------------------------

warped::InFlight make_inflight(std::uint64_t seq) {
  warped::InFlight f;
  f.deliver_at_ns = seq;
  f.seq = seq;
  f.event = make_event(seq + 1, seq + 1);
  return f;
}

/// Uncontended 16-message round trip through the coalescing fabric: 16
/// adds into the SendCoalescer (flushed as one batch by a burst-end
/// flush), one lock-free batch push, one chain drain.
void BM_MailboxTransferCoalesced(benchmark::State& state) {
  warped::InProcChannel ch(1);
  warped::SendCoalescer co;
  warped::CoalesceConfig cc;
  cc.max_batch_msgs = 64;
  co.configure(&ch, cc);
  std::vector<warped::InFlight> buf;
  std::uint64_t seq = 0;
  for (auto _ : state) {
    for (int i = 0; i < 16; ++i) co.add(0, make_inflight(seq++), 0, 0);
    co.flush_all(0, 0);
    buf.clear();
    ch.drain(0, buf);
    benchmark::DoNotOptimize(buf.size());
  }
}
BENCHMARK(BM_MailboxTransferCoalesced);

// Contended mailbox push/drain at 1/2/4/8 producers.  All threads produce
// into one mailbox; thread 0 additionally drains on a fixed cadence, like
// a receiver polling its endpoint between LTSF bursts.  Reported rate =
// messages transferred per second across all producers.

constexpr int kDrainEvery = 256;

void BM_MailboxContendedCoalesced(benchmark::State& state) {
  static warped::InProcChannel ch(1);
  // Each producer thread owns a SendCoalescer, as each node thread does.
  warped::SendCoalescer co;
  warped::CoalesceConfig cc;
  cc.max_batch_msgs = 64;
  co.configure(&ch, cc);
  std::vector<warped::InFlight> buf;
  std::uint64_t seq = 0;
  int since_drain = 0;
  for (auto _ : state) {
    co.add(0, make_inflight(seq++), 0, 0);
    if (state.thread_index() == 0 && ++since_drain == kDrainEvery) {
      since_drain = 0;
      buf.clear();
      ch.drain(0, buf);
      benchmark::DoNotOptimize(buf.size());
    }
  }
  co.flush_all(0, 0);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MailboxContendedCoalesced)
    ->Threads(1)
    ->Threads(2)
    ->Threads(4)
    ->Threads(8)
    ->UseRealTime();

// Holding-heap churn with a GVT report (min_recv_time) per poll.  Keeps
// ~512 messages live, pushes/pops in 16-message waves with randomized
// receive times.
void BM_HoldingHeapChurn(benchmark::State& state) {
  warped::HoldingHeap heap;
  util::Rng rng(7);
  std::uint64_t seq = 0;
  for (int i = 0; i < 512; ++i) {
    warped::InFlight f = make_inflight(seq++);
    f.event.recv_time = 1 + rng.next() % 4096;
    f.deliver_at_ns = 0;
    heap.push(std::move(f));
  }
  for (auto _ : state) {
    for (int i = 0; i < 16; ++i) {
      warped::InFlight f = make_inflight(seq++);
      f.event.recv_time = 1 + rng.next() % 4096;
      f.deliver_at_ns = 0;
      heap.push(std::move(f));
    }
    for (int i = 0; i < 16; ++i) benchmark::DoNotOptimize(heap.pop());
    benchmark::DoNotOptimize(heap.min_recv_time());
  }
  state.SetItemsProcessed(state.iterations() * 32);
}
BENCHMARK(BM_HoldingHeapChurn);

/// A ring of LPs each forwarding one event to its successor: the smallest
/// model whose steady state exercises the whole scalar event path (insert,
/// LTSF schedule, execute, commit + snapshot, fossil collection, GVT) with
/// negligible behaviour cost.  items_processed counts committed events, so
/// the reported rate IS the scalar event throughput the memory-layer
/// acceptance criterion tracks (BENCH_kernel_micro.json).
class RingLp final : public warped::LogicalProcess {
 public:
  RingLp(warped::LpId next, warped::SimTime stride)
      : next_(next), stride_(stride) {}
  void init(warped::Context& ctx) override {
    ctx.send(next_, stride_, 0, 1);
  }
  void execute(warped::Context& ctx, warped::EventBatch batch) override {
    warped::LpState& s = ctx.state();
    for (const auto& ev : batch) s.a += ev.value;
    const warped::SimTime at = ctx.now() + stride_;
    if (at <= ctx.end_time()) ctx.send(next_, at, 0, 1);
  }

 private:
  warped::LpId next_;
  warped::SimTime stride_;
};

void BM_KernelScalarEventThroughput(benchmark::State& state) {
  constexpr std::uint32_t kLps = 16;
  constexpr warped::SimTime kEnd = 50000;
  std::uint64_t events = 0;
  for (auto _ : state) {
    std::vector<std::unique_ptr<RingLp>> ring;
    std::vector<warped::LogicalProcess*> lps;
    std::vector<std::uint32_t> node_of(kLps, 0);
    for (std::uint32_t i = 0; i < kLps; ++i) {
      ring.push_back(std::make_unique<RingLp>((i + 1) % kLps, 1));
      lps.push_back(ring.back().get());
    }
    warped::KernelConfig kc;
    kc.num_nodes = 1;
    kc.end_time = kEnd;
    kc.gvt_interval_us = 200;
    kc.throttle.mode = warped::ThrottleMode::kUnlimited;
    warped::Kernel kernel(std::move(lps), std::move(node_of), kc);
    const warped::RunStats rs = kernel.run();
    events += rs.totals.events_committed;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.SetLabel("committed events/s = scalar event throughput");
}
BENCHMARK(BM_KernelScalarEventThroughput)->Unit(benchmark::kMillisecond);

/// The kernel alone on pipebench's scalar-ml-k2 model: the s15850 stand-in
/// (generator seed 2000), graph Multilevel onto 2 parts (partitioner seed
/// 2000), one lane with stimulus seed 4242, horizon 6000, and the
/// host-native KernelConfig that framework::kernel_config gives a default
/// DriverConfig with the modeled event, send and latency costs at 0.
/// Arg = node count: at 1 node every LP shares one node loop, at 2 nodes
/// the partition's cut is real traffic.  Circuit, partition and model are
/// built outside the timing; each iteration constructs and runs a fresh
/// Kernel.
/// `per_event` is wall time per committed event, in seconds.
void BM_KernelS15850(benchmark::State& state) {
  const auto nodes = static_cast<std::uint32_t>(state.range(0));
  static const circuit::Circuit c = circuit::make_iscas_like("s15850", 2000);
  static const partition::Partition p =
      framework::make_partitioner("Multilevel")->run(c, 2, 2000);
  logicsim::ModelOptions mo;
  mo.stim_seed = 4242;
  const logicsim::SimModel model = logicsim::build_model(c, mo);
  const std::vector<std::uint32_t> node_of =
      nodes == 1 ? std::vector<std::uint32_t>(c.size(), 0) : p.assign;

  framework::DriverConfig d;
  d.num_nodes = nodes;
  d.end_time = 6000;
  d.event_cost_ns = 0;
  d.send_overhead_ns = 0;
  d.latency_ns = 0;
  const warped::KernelConfig kc = framework::kernel_config(d);

  std::uint64_t events = 0;
  for (auto _ : state) {
    warped::Kernel kernel(model.behaviours(), node_of, kc);
    const warped::RunStats rs = kernel.run();
    benchmark::DoNotOptimize(rs.final_gvt);
    events += rs.totals.events_committed;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.counters["per_event"] = benchmark::Counter(
      static_cast<double>(events),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_KernelS15850)
    ->ArgName("nodes")
    ->Arg(1)
    ->Arg(2)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// The sequential reference on pipebench's two verify workloads: the
/// s15850 stand-in (generator seed 2000) with stimulus seed 4242, at one
/// lane to horizon 6000 and at 256 lanes to horizon 1200.  Arg = lanes.
/// The model is built outside the timing; each iteration runs
/// simulate_sequential once.  `per_event` is wall time per processed
/// event, in seconds.
void BM_SequentialS15850(benchmark::State& state) {
  const auto lanes = static_cast<std::uint32_t>(state.range(0));
  static const circuit::Circuit c = circuit::make_iscas_like("s15850", 2000);
  logicsim::ModelOptions mo;
  mo.stim_seed = 4242;
  mo.lanes = lanes;
  const logicsim::SimModel model = logicsim::build_model(c, mo);
  const warped::SimTime horizon = lanes == 1 ? 6000 : 1200;

  std::uint64_t events = 0;
  for (auto _ : state) {
    const logicsim::SeqStats s =
        logicsim::simulate_sequential(model.behaviours(), horizon);
    benchmark::DoNotOptimize(s.final_states.data());
    events += s.events_processed;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.counters["per_event"] = benchmark::Counter(
      static_cast<double>(events),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_SequentialS15850)
    ->ArgName("lanes")
    ->Arg(1)
    ->Arg(256)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// Whole partitioner runs on the s15850 stand-in (generator seed 2000):
/// graph Multilevel onto 2 parts at partitioner seed 2000 (the partition
/// of pipebench's ml-k2 workloads), and MultilevelHG onto 8 parts cycling
/// partition-hg-k8's sub-seeds 32·2000 + j, j = 0..31, one per iteration
/// and each once per measurement (their work differs by up to 1.5×).  The
/// circuit is built outside the timing; the row's time is wall time per
/// run.
void BM_PartitionS15850(benchmark::State& state, const char* strategy,
                        std::uint32_t k, bool cycle_seeds) {
  static const circuit::Circuit c = circuit::make_iscas_like("s15850", 2000);
  const auto partitioner = framework::make_partitioner(strategy);
  std::uint64_t j = 0;
  for (auto _ : state) {
    const std::uint64_t seed = cycle_seeds ? 32 * 2000 + j++ % 32 : 2000;
    benchmark::DoNotOptimize(partitioner->run(c, k, seed).assign.data());
  }
}
BENCHMARK_CAPTURE(BM_PartitionS15850, multilevel_k2, "Multilevel", 2, false)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_PartitionS15850, multilevel_hg_k8, "MultilevelHG", 8,
                  true)
    ->Iterations(32)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_CoarsenS9234(benchmark::State& state) {
  const circuit::Circuit c = circuit::make_iscas_like("s9234", 7);
  for (auto _ : state) {
    partition::CoarsenOptions opt;
    opt.threshold = 64;
    benchmark::DoNotOptimize(partition::coarsen(c, opt).num_levels());
  }
}
BENCHMARK(BM_CoarsenS9234)->Unit(benchmark::kMillisecond);

void BM_GreedyRefineFinestLevel(benchmark::State& state) {
  const circuit::Circuit c = circuit::make_iscas_like("s9234", 7);
  const auto g = graph::WeightedGraph::from_circuit(c);
  util::Rng rng(3);
  partition::Partition base;
  base.k = 8;
  base.assign.resize(g.num_vertices());
  for (auto& a : base.assign) {
    a = static_cast<partition::PartId>(rng.below(8));
  }
  for (auto _ : state) {
    partition::Partition p = base;
    partition::RefineOptions opt;
    benchmark::DoNotOptimize(
        partition::GreedyRefiner().refine(g, p, opt).cut_after);
  }
}
BENCHMARK(BM_GreedyRefineFinestLevel)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
