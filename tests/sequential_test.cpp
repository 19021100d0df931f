// Tests for the sequential reference simulator on hand-built circuits with
// waveforms that can be predicted by hand.

#include <gtest/gtest.h>

#include <iterator>
#include <memory>
#include <set>
#include <string>

#include "circuit/bench_io.hpp"
#include "circuit/circuit.hpp"
#include "circuit/generator.hpp"
#include "logicsim/netlist_lps.hpp"
#include "logicsim/sequential.hpp"

namespace pls::logicsim {
namespace {

using circuit::GateType;

TEST(Sequential, InverterChainTracksStimulus) {
  // a -> n0 -> n1 (two inverters): after settling, n1 == a, n0 == !a.
  circuit::Circuit c;
  const auto a = c.add_input("a");
  const auto n0 = c.add_gate("n0", GateType::kNot, {a});
  const auto n1 = c.add_gate("n1", GateType::kNot, {n0});
  c.mark_output(n1);
  c.freeze();

  ModelOptions opt;
  opt.stim_period = 20;
  opt.stim_seed = 7;
  SimModel model = build_model(c, opt);
  // End at 90: the last vector the chain can fully absorb is at t=80
  // (a's transition reaches n1 by t=83).
  const SeqStats out = simulate_sequential(model.behaviours(), 90);

  const bool a_final = BatchInputLp::vector_bit(7, a, 80 / 20);
  EXPECT_EQ(output_bit(out.final_states[a]), a_final);
  EXPECT_EQ(output_bit(out.final_states[n0]), !a_final);
  EXPECT_EQ(output_bit(out.final_states[n1]), a_final);
}

TEST(Sequential, PowerOnSettlesInvertedGates) {
  // NAND(a,b) with a=b=0 must settle to 1 even with no stimulus change.
  circuit::Circuit c;
  const auto a = c.add_input("a");
  const auto b = c.add_input("b");
  const auto g = c.add_gate("g", GateType::kNand, {a, b});
  c.freeze();

  ModelOptions opt;
  opt.stim_period = 1000000;  // effectively static inputs (vector 0 only)
  opt.stim_seed = 1;          // chosen so that not both inputs are 1
  SimModel model = build_model(c, opt);
  const SeqStats out = simulate_sequential(model.behaviours(), 50);

  const bool av = output_bit(out.final_states[a]);
  const bool bv = output_bit(out.final_states[b]);
  EXPECT_EQ(output_bit(out.final_states[g]), !(av && bv));
}

TEST(Sequential, DffDelaysDataByOneClock) {
  // in -> ff; ff samples every 10 starting at phase 5.
  circuit::Circuit c;
  const auto a = c.add_input("a");
  const auto ff = c.add_gate("ff", GateType::kDff, {a});
  c.mark_output(ff);
  c.freeze();

  ModelOptions opt;
  opt.clock_period = 10;
  opt.clock_phase = 5;
  opt.stim_period = 40;
  opt.stim_seed = 3;
  SimModel model = build_model(c, opt);
  const SeqStats out = simulate_sequential(model.behaviours(), 200);

  // Q must equal the input value at the last clock edge (t=195), which is
  // the vector applied at t=160 (index 4).
  const bool expected = BatchInputLp::vector_bit(3, a, 4);
  EXPECT_EQ(output_bit(out.final_states[ff]), expected);
}

TEST(Sequential, EventCountScalesWithHorizon) {
  circuit::Circuit c;
  const auto a = c.add_input("a");
  c.add_gate("n0", GateType::kNot, {a});
  c.freeze();
  SimModel m1 = build_model(c);
  SimModel m2 = build_model(c);
  const auto short_run = simulate_sequential(m1.behaviours(), 100);
  const auto long_run = simulate_sequential(m2.behaviours(), 1000);
  EXPECT_GT(long_run.events_processed, short_run.events_processed);
}

TEST(Sequential, PerLpEventCountsSumToTotal) {
  const auto c = circuit::parse_bench_string(R"(
INPUT(a)
INPUT(b)
OUTPUT(y)
x = NAND(a, b)
f = DFF(x)
y = XOR(x, f)
)");
  SimModel model = build_model(c);
  const SeqStats out = simulate_sequential(model.behaviours(), 500);
  std::uint64_t sum = 0;
  for (auto n : out.per_lp_events) sum += n;
  EXPECT_EQ(sum, out.events_processed);
  EXPECT_GT(out.events_processed, 0u);
}

TEST(Sequential, DeterministicAcrossRuns) {
  const auto c = circuit::parse_bench_string(R"(
INPUT(a)
INPUT(b)
g1 = OR(a, b)
g2 = NOT(g1)
f = DFF(g2)
g3 = AND(g1, f)
OUTPUT(g3)
)");
  SimModel m1 = build_model(c);
  SimModel m2 = build_model(c);
  const auto r1 = simulate_sequential(m1.behaviours(), 400);
  const auto r2 = simulate_sequential(m2.behaviours(), 400);
  EXPECT_EQ(r1.events_processed, r2.events_processed);
  ASSERT_EQ(r1.final_states.size(), r2.final_states.size());
  for (std::size_t i = 0; i < r1.final_states.size(); ++i) {
    EXPECT_EQ(r1.final_states[i], r2.final_states[i]);
  }
}

// ----- golden hashes ---------------------------------------------------
//
// FNV-1a hashes of every SeqStats field except the wall time, on generated
// circuits at one lane and at single- and multi-word lane counts.  The
// one-lane rows were recorded on a separate scalar engine that the
// word-wise LPs replaced.  A speed-up of the sequential reference must keep
// every committed count and every final state word, so a changed hash is a
// behaviour change.

class Fnv1a {
 public:
  void add(std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (x >> (8 * i)) & 0xffu;
      h_ *= 1099511628211ULL;
    }
  }
  void add(const std::vector<std::uint64_t>& v) {
    add(v.size());
    for (const std::uint64_t x : v) add(x);
  }
  void add(const SeqStats& s) {
    add(s.events_processed);
    add(s.final_states.size());
    for (const warped::LpState& st : s.final_states) {
      add(st.a);
      add(st.b);
      add(st.w.size());
      for (const std::uint64_t x : st.w) add(x);
    }
    add(s.per_lp_events);
    add(s.per_lp_lane_work);
    add(s.per_lp_sends);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ULL;
};

TEST(SeqGolden, GeneratedCircuitsAcrossLaneCounts) {
  // Odd clock edges plus a stimulus drift that freezes half the inputs
  // at t=1000 and thaws the other half.
  ModelOptions odd_clock_drift;
  odd_clock_drift.clock_period = 7;
  odd_clock_drift.clock_phase = 3;
  odd_clock_drift.stim_period = 50;
  odd_clock_drift.stim_drift_at = 1000;
  struct Case {
    const char* circuit;
    std::uint32_t lanes;
    std::uint64_t stim_seed;
    warped::SimTime horizon;
    std::uint64_t hash;
    ModelOptions timing = {};  ///< clock and stimulus timing
  };
  // The s15850 rows are the pipeline benchmark's circuit at its scalar and
  // 256-lane horizons.
  const Case cases[] = {
      {"s5378", 1, 11, 2000, 0xcf5b4870efd53910ULL},
      {"s5378", 1, 29, 2000, 0xc57fef5ea3ad8e29ULL},
      {"s5378", 64, 11, 600, 0xfc07072e002b11bfULL},
      {"s5378", 64, 29, 600, 0x1fc25eb674e7a2f4ULL},
      {"s5378", 130, 11, 400, 0x3df74e2e53980dd6ULL},
      {"s5378", 130, 29, 400, 0x511ed548649b39d6ULL},
      {"s5378", 256, 11, 300, 0x9c685428d3f56b13ULL},
      {"s5378", 256, 29, 300, 0x2fa1a0846b70c39bULL},
      {"s15850", 1, 4242, 6000, 0x262d9fc321f6d8f4ULL},
      {"s15850", 256, 4242, 1200, 0x991282cb5f4d2d9eULL},
      {"s9234", 1, 11, 2000, 0x6175480bd08481acULL},
      {"s5378", 1, 11, 2000, 0x86074dbca6d8c06fULL, odd_clock_drift},
  };
  const circuit::Circuit s5378 = circuit::make_iscas_like("s5378", 2000);
  const circuit::Circuit s9234 = circuit::make_iscas_like("s9234", 2000);
  const circuit::Circuit s15850 = circuit::make_iscas_like("s15850", 2000);
  for (const Case& k : cases) {
    const std::string name = k.circuit;
    const circuit::Circuit& c =
        name == "s5378" ? s5378 : name == "s9234" ? s9234 : s15850;
    ModelOptions opt = k.timing;
    opt.lanes = k.lanes;
    opt.stim_seed = k.stim_seed;
    SimModel model = build_model(c, opt);
    const SeqStats out = simulate_sequential(model.behaviours(), k.horizon);
    Fnv1a h;
    h.add(out);
    EXPECT_EQ(h.value(), k.hash)
        << std::hex << "hash 0x" << h.value() << std::dec << " for "
        << k.circuit << ", lanes " << k.lanes << ", stim_seed "
        << k.stim_seed << ", clock_period " << opt.clock_period;
  }
}

// ----- generic LPs ------------------------------------------------------
//
// A test-local LP model whose sends straddle any short time window: ticks
// and data events go out at every delay in kDelays, several senders meet
// at one LP and tick, init sends land at time 0, wide (multi-word)
// payloads and state words come from the pool, and long delays leave
// stretches of more than 32 ticks with no event at all.  Each batch folds
// into the state in an order-sensitive way, so a batch that holds other
// events, or the same events in another order, changes the hash.

constexpr warped::SimTime kDelays[] = {1, 2, 20, 31, 32, 33, 64, 1000};
constexpr std::uint32_t kWideWords = 3;

std::uint64_t mix(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  return x ^ (x >> 33);
}

/// What the model did, gathered across every LP, so the test can check
/// that the run covers the cases the model is built for.
struct CalendarLog {
  std::set<warped::SimTime> delays;   ///< recv_time - send_time seen
  std::set<warped::SimTime> times;    ///< times with at least one batch
  std::size_t multi_sender_batches = 0;
  std::size_t wide_events = 0;
};

class CalendarLp final : public warped::LogicalProcess {
 public:
  CalendarLp(warped::LpId n, CalendarLog* log) : n_(n), log_(log) {}

  warped::LpState initial_state() const override {
    warped::LpState s;
    s.w = mem::Words(kWideWords);
    return s;
  }

  void init(warped::Context& ctx) override {
    const warped::LpId self = ctx.self();
    ctx.schedule_self(0, self);
    // Every LP also sends to LP 0 at time 0: many senders, one batch.
    ctx.send(0, 0, 1, self + 1);
    if (self % 2 == 1) ctx.schedule_self(kDelays[self % 8], self);
  }

  void execute(warped::Context& ctx, warped::EventBatch batch) override {
    warped::LpState& s = ctx.state();
    bool tick = false;
    std::set<warped::LpId> senders;
    for (const warped::Event& e : batch) {
      if (e.port == warped::kTickPort) tick = true;
      senders.insert(e.sender);
      log_->delays.insert(e.recv_time - e.send_time);
      std::uint64_t f = mix((std::uint64_t{e.sender} << 32) ^ e.port);
      for (std::uint32_t w = 0; w < e.payload_words(); ++w) {
        f = mix(f ^ e.value_word(w)) + e.mask_word(w);
      }
      if (e.payload_words() > 1) ++log_->wide_events;
      s.a = s.a * 31 + f;
      s.w[e.id % kWideWords] = s.w[e.id % kWideWords] * 31 + (f >> 7);
    }
    s.b += batch.size();
    log_->times.insert(ctx.now());
    if (senders.size() > 1) ++log_->multi_sender_batches;
    if (!tick) return;

    const std::uint64_t h = mix(s.a);
    const warped::SimTime now = ctx.now();
    // Data delays, and half the tick delays, follow the clock, so LPs
    // that tick together keep meeting: they send to one arrival tick and
    // tick together again.  Every eighth 128-tick phase is quiet: only
    // 64- and 1000-tick sends, which leaves long stretches with no event.
    const bool quiet = (now / 128) % 8 == 7;
    const std::uint64_t by_clock = mix(now);
    const warped::SimTime data_at =
        now + (quiet ? kDelays[6 + h % 2] : kDelays[by_clock % 8]);
    const std::uint64_t tick_pick = (h >> 3) % 2 ? h >> 4 : by_clock >> 3;
    const warped::SimTime tick_at =
        now + (quiet ? 1000 : kDelays[tick_pick % 8]);
    // One send goes to a hub (LP 0 or 1), where senders meet; the other
    // to any LP.  A third of the sends are wide.
    const warped::LpId targets[] = {static_cast<warped::LpId>((h >> 6) % 2),
                                    static_cast<warped::LpId>((h >> 8) % n_)};
    const std::uint32_t port = static_cast<std::uint32_t>((h >> 16) % 3);
    for (const warped::LpId target : targets) {
      if (data_at > ctx.end_time()) break;
      if ((h >> 20) % 3 == 0) {
        std::uint64_t values[kWideWords];
        std::uint64_t masks[kWideWords];
        for (std::uint32_t w = 0; w < kWideWords; ++w) {
          values[w] = mix(h + w);
          masks[w] = mix(h ^ (w + 1)) | 1;
        }
        ctx.send_wide(target, data_at, port, values, masks, kWideWords);
      } else {
        ctx.send(target, data_at, port, h >> 32, (h >> 24) | 1);
      }
    }
    if (tick_at <= ctx.end_time()) ctx.schedule_self(tick_at, h >> 40);
  }

 private:
  warped::LpId n_;
  CalendarLog* log_;
};

TEST(SeqGolden, GenericLpsAcrossTheCalendar) {
  struct Case {
    warped::LpId lps;
    warped::SimTime horizon;
    std::uint64_t hash;
  };
  const Case cases[] = {
      {3, 20000, 0x5326c4e8dd351819ULL},
      {7, 20000, 0x478426bf46edab75ULL},
      {16, 12000, 0xcd33af4922445e27ULL},
  };
  for (const Case& k : cases) {
    CalendarLog log;
    std::vector<std::unique_ptr<CalendarLp>> owners;
    std::vector<warped::LogicalProcess*> lps;
    for (warped::LpId i = 0; i < k.lps; ++i) {
      owners.push_back(std::make_unique<CalendarLp>(k.lps, &log));
      lps.push_back(owners.back().get());
    }
    const SeqStats out = simulate_sequential(lps, k.horizon);

    // The run reaches every case the model is built for.
    EXPECT_EQ(log.delays,
              std::set<warped::SimTime>({0, 1, 2, 20, 31, 32, 33, 64, 1000}));
    EXPECT_EQ(*log.times.begin(), 0u);
    EXPECT_GT(log.multi_sender_batches, 10u);
    EXPECT_GT(log.wide_events, 10u);
    std::size_t long_gaps = 0;
    for (auto it = std::next(log.times.begin()); it != log.times.end();
         ++it) {
      if (*it - *std::prev(it) > 32) ++long_gaps;
    }
    EXPECT_GT(long_gaps, 2u);

    Fnv1a h;
    h.add(out);
    EXPECT_EQ(h.value(), k.hash)
        << std::hex << "hash 0x" << h.value() << std::dec << " for "
        << k.lps << " LPs, horizon " << k.horizon << " ("
        << out.events_processed << " events, " << log.multi_sender_batches
        << " batches from several senders, " << long_gaps
        << " gaps over 32 ticks)";
  }
}

}  // namespace
}  // namespace pls::logicsim
