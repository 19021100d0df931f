#include "logicsim/sequential.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <functional>

#include "logicsim/gate_eval.hpp"
#include "logicsim/lanes.hpp"
#include "logicsim/netlist_lps.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"

namespace pls::logicsim {
namespace {

using warped::LpId;
using warped::LpState;
using warped::SimTime;

/// Tick-wheel width.  It covers the netlist model's clock (10) and
/// stimulus (20) periods, so only longer self-tick periods reach the
/// overflow heap.
constexpr SimTime kSlots = 32;

enum class Kind : std::uint8_t { kGate, kDff, kInput };

constexpr std::uint32_t kNoStuck = ~std::uint32_t{0};

/// One LP compiled to plain data, its per-tick scratch and its counts:
/// one cache line.
struct alignas(64) Node {
  std::uint32_t state = 0;      ///< offset of `a` in the state words
  std::uint32_t fan_begin = 0;  ///< first fanout port
  std::uint32_t fan_end = 0;
  std::uint32_t stuck = kNoStuck;  ///< offset of the stuck-at words
  std::uint32_t w_size = 0;     ///< LpState::w words
  std::uint32_t ticks = 0;      ///< self-ticks due at the current tick
  SimTime touched = 0;          ///< 1 + the last tick that touched this LP
  std::uint64_t events = 0;
  std::uint64_t lane_work = 0;
  std::uint64_t sends = 0;
  Kind kind = Kind::kGate;
  circuit::GateType type = circuit::GateType::kBuf;
  bool observe = false;
  std::uint8_t arity = 1;
};

/// Clock and stimulus timing of a flip-flop or input; unused for gates.
struct Timing {
  SimTime period = 0;
  SimTime phase = 0;     ///< flip-flop: first edge
  SimTime drift_at = 0;  ///< input: ModelOptions::stim_drift_at
  std::uint64_t seed = 0;
  bool hot_first = true;
  bool uniform = false;
};

/// A data event due at the next tick: it points into that tick's payload
/// array, where its sender wrote K value words, then K change masks.
struct Record {
  LpId target;
  std::uint32_t port;
  std::uint32_t payload;
  std::uint32_t lanes;  ///< popcount of the change masks
};

/// Lanes of `word` that differ from lane 0 (bit 0 of `ref_word0`), within
/// the active lanes: what an observing LP accumulates in fault mode.
inline std::uint64_t divergence(std::uint64_t word, std::uint64_t ref_word0,
                                std::uint64_t active) noexcept {
  return (word ^ ((ref_word0 & 1) ? ~std::uint64_t{0} : 0)) & active;
}

class FlatEngine {
 public:
  FlatEngine(const std::vector<warped::LogicalProcess*>& lps, SimTime end,
             std::uint64_t event_cost_ns)
      : end_(end), event_cost_ns_(event_cost_ns) {
    compile(lps);
  }

  void run() {
    for (LpId i = 0; i < nodes_.size(); ++i) {
      const Node& n = nodes_[i];
      if (n.kind != Kind::kDff) {
        push_tick(i, 0);  // power-on evaluation and vector 0
      } else if (timing_[i].phase <= end_) {
        push_tick(i, timing_[i].phase);
      }
    }
    if (ring_[0].empty() && !advance()) return;
    do {
      step();
    } while (advance());
  }

  void export_to(SeqStats& out) const {
    const std::size_t n = nodes_.size();
    out.final_states.resize(n);
    out.per_lp_events.resize(n);
    out.per_lp_lane_work.resize(n);
    out.per_lp_sends.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      const Node& node = nodes_[i];
      const std::uint64_t* s = words_.data() + node.state;
      LpState& st = out.final_states[i];
      st.a = s[0];
      st.b = s[1];
      st.w.assign(node.w_size, 0);
      std::copy_n(s + 2, node.w_size, st.w.data());
      out.per_lp_events[i] = node.events;
      out.per_lp_lane_work[i] = node.lane_work;
      out.per_lp_sends[i] = node.sends;
      out.events_processed += node.events;
    }
  }

 private:
  void compile(const std::vector<warped::LogicalProcess*>& lps);

  /// One tick: ticks and data events land, then every LP they touched
  /// runs once.
  void step();
  void exec_gate(LpId lp, Node& n);
  void exec_dff(LpId lp, Node& n);
  void exec_input(LpId lp, Node& n);

  void touch(LpId lp, Node& n) {
    if (n.touched == now_ + 1) return;
    n.touched = now_ + 1;
    n.ticks = 0;
    if (n.kind == Kind::kDff) {
      std::fill_n(words_.data() + n.state + 2 + n.w_size, k_, 0);
    }
    touched_.push_back(lp);
  }

  /// Send K output words and their change masks to every fanout port one
  /// tick from now, unless that lies beyond the horizon.
  void emit(LpId lp, Node& n, const std::uint64_t* values,
            const std::uint64_t* masks) {
    static_assert(ModelOptions::gate_delay == 1 &&
                      ModelOptions::dff_delay == 1,
                  "the flat engine steps unit delays");
    if (now_ + 1 > end_) return;
    const auto at = static_cast<std::uint32_t>(next_payload_.size());
    std::uint32_t lanes = 0;
    for (std::uint32_t wd = 0; wd < k_; ++wd) {
      next_payload_.push_back(values[wd]);
      lanes += static_cast<std::uint32_t>(std::popcount(masks[wd]));
    }
    next_payload_.insert(next_payload_.end(), masks, masks + k_);
    for (std::uint32_t f = n.fan_begin; f < n.fan_end; ++f) {
      const FanoutPort& fp = ports_[f];
      next_.push_back(Record{fp.target, fp.port, at, lanes});
      if (fp.target != lp) n.sends += lanes;
    }
  }

  void push_tick(LpId lp, SimTime at) {
    if (at - now_ < kSlots) {
      ring_[at % kSlots].push_back(lp);
      ++in_ring_;
    } else {
      later_.emplace_back(at, lp);
      std::push_heap(later_.begin(), later_.end(), std::greater<>());
    }
  }

  SimTime next_edge(LpId lp, SimTime t) const {
    const Timing& tm = timing_[lp];
    if (t <= tm.phase) return tm.phase;
    return tm.phase + (t - tm.phase + tm.period - 1) / tm.period * tm.period;
  }

  std::uint64_t apply_stuck(const Node& n, std::uint32_t wd,
                            std::uint64_t o) const {
    if (n.stuck == kNoStuck) return o;
    const std::uint64_t* sa = stuck_.data() + n.stuck;
    return (o & ~sa[wd]) | sa[k_ + wd];
  }

  /// Moves to the next tick with any pending event.  False when none
  /// remains.
  bool advance() {
    if (!cur_.empty()) {
      ++now_;  // data lands exactly one tick after it was sent
    } else if (in_ring_ > 0) {
      // Every heap tick is due at least kSlots past the old tick, so the
      // next non-empty slot is the earliest pending tick.
      do {
        ++now_;
      } while (ring_[now_ % kSlots].empty());
    } else if (!later_.empty()) {
      now_ = later_.front().first;  // skip a gap with no events
    } else {
      return false;
    }
    while (!later_.empty() && later_.front().first - now_ < kSlots) {
      std::pop_heap(later_.begin(), later_.end(), std::greater<>());
      ring_[later_.back().first % kSlots].push_back(later_.back().second);
      later_.pop_back();
      ++in_ring_;
    }
    return true;
  }

  SimTime end_;
  std::uint64_t event_cost_ns_;
  std::uint32_t lanes_ = 1;
  std::uint32_t k_ = 1;  ///< lane words per signal
  std::array<std::uint64_t, kMaxLaneWords> lane_mask_{};

  std::vector<Node> nodes_;
  std::vector<Timing> timing_;
  std::vector<FanoutPort> ports_;   ///< CSR fanout ports
  /// Every LP's LpState (a, b, then w); a flip-flop's is followed by K
  /// words of the lanes its D changed on at the current tick.
  std::vector<std::uint64_t> words_;
  std::vector<std::uint64_t> stuck_;

  SimTime now_ = 0;
  std::vector<LpId> touched_;
  std::vector<Record> cur_, next_;
  std::vector<std::uint64_t> cur_payload_, next_payload_;
  std::array<std::vector<LpId>, kSlots> ring_;
  std::size_t in_ring_ = 0;
  std::vector<std::pair<SimTime, LpId>> later_;  ///< min-heap past the ring
};

/// Words of LpState::w in the layout netlist_lps.hpp documents for `n`.
std::uint32_t w_words(const Node& n, std::uint32_t lanes) {
  const std::uint32_t K = lane_words(lanes);
  const std::uint32_t obs = n.observe ? 1 : 0;
  switch (n.kind) {
    case Kind::kGate:  // fanin words, output words 1.., divergence 1..
      return lanes == 1 ? 0 : n.arity * K + (K - 1) + obs * (K - 1);
    case Kind::kDff:  // armed, D 1.., Q 1.., divergence 0..
      return lanes == 1 ? 0 : 3 * K - 2 + obs * K;
    case Kind::kInput:  // stimulus words 1.., divergence 1..
      return (K - 1) + obs * (K - 1);
  }
  return 0;
}

void FlatEngine::compile(const std::vector<warped::LogicalProcess*>& lps) {
  const std::size_t n = lps.size();
  nodes_.resize(n);
  timing_.resize(n);
  for (LpId i = 0; i < n; ++i) {
    Node& node = nodes_[i];
    Timing& tm = timing_[i];
    const std::vector<FanoutPort>* fanouts = nullptr;
    const std::uint64_t* stuck = nullptr;
    std::uint32_t lanes = 0;
    auto common = [&](Kind kind, const auto& lp) {
      node.kind = kind;
      node.observe = lp.observes();
      fanouts = &lp.fanouts();
      stuck = lp.stuck_words();
      lanes = lp.lanes();
    };
    if (const auto* g = dynamic_cast<const BatchGateLp*>(lps[i])) {
      common(Kind::kGate, *g);
      node.type = g->type();
      node.arity = static_cast<std::uint8_t>(g->arity());
    } else if (const auto* d = dynamic_cast<const BatchDffLp*>(lps[i])) {
      common(Kind::kDff, *d);
      tm.period = d->period();
      tm.phase = d->phase();
    } else if (const auto* in = dynamic_cast<const BatchInputLp*>(lps[i])) {
      common(Kind::kInput, *in);
      tm.period = in->period();
      tm.drift_at = in->drift_at();
      tm.seed = in->seed();
      tm.hot_first = in->hot_first();
      tm.uniform = in->uniform();
    } else {
      PLS_CHECK_MSG(false, "LP " << i
                                 << " is not a netlist behaviour (BatchGateLp, "
                                    "BatchDffLp or BatchInputLp)");
    }
    if (i == 0) {
      lanes_ = lanes;
      k_ = lane_words(lanes);
      for (std::uint32_t wd = 0; wd < k_; ++wd) {
        lane_mask_[wd] = lane_mask_word(lanes, wd);
      }
    }
    PLS_CHECK_MSG(lanes == lanes_, "LP " << i << " has " << lanes
                                         << " lanes, LP 0 has " << lanes_);

    const LpState init = lps[i]->initial_state();
    node.w_size = w_words(node, lanes);
    PLS_CHECK_MSG(init.w.size() == node.w_size,
                  "LP " << i << " starts with " << init.w.size()
                        << " state words, its layout has " << node.w_size);
    node.state = static_cast<std::uint32_t>(words_.size());
    words_.push_back(init.a);
    words_.push_back(init.b);
    words_.insert(words_.end(), init.w.begin(), init.w.end());
    if (node.kind == Kind::kDff) words_.resize(words_.size() + k_, 0);

    node.fan_begin = static_cast<std::uint32_t>(ports_.size());
    ports_.insert(ports_.end(), fanouts->begin(), fanouts->end());
    node.fan_end = static_cast<std::uint32_t>(ports_.size());

    if (stuck != nullptr) {
      node.stuck = static_cast<std::uint32_t>(stuck_.size());
      stuck_.insert(stuck_.end(), stuck, stuck + 2 * k_);
    }
  }
  // Every port a record can name exists: a fanin of a gate, the D pin of a
  // flip-flop, never an input.
  for (const FanoutPort& fp : ports_) {
    PLS_CHECK_MSG(fp.target < n, "fanout to LP " << fp.target
                                                 << " outside the model");
    const Node& t = nodes_[fp.target];
    const bool pin = t.kind == Kind::kGate ? fp.port < t.arity
                                           : t.kind == Kind::kDff && fp.port == 0;
    PLS_CHECK_MSG(pin, "fanout to port " << fp.port << " of LP " << fp.target);
  }
}

void FlatEngine::step() {
  touched_.clear();
  std::vector<LpId>& slot = ring_[now_ % kSlots];
  for (const LpId lp : slot) {
    Node& n = nodes_[lp];
    touch(lp, n);
    ++n.ticks;
    ++n.events;
    ++n.lane_work;  // a tick's scalar mask weighs one lane
  }
  in_ring_ -= slot.size();
  slot.clear();

  // Data before evaluation: every port has one driver, so the order in
  // which this tick's events land does not matter.
  const std::uint32_t K = k_;
  for (const Record& r : cur_) {
    Node& n = nodes_[r.target];
    touch(r.target, n);
    ++n.events;
    n.lane_work += r.lanes;
    const std::uint64_t* value = cur_payload_.data() + r.payload;
    const std::uint64_t* mask = value + K;
    std::uint64_t* s = words_.data() + n.state;
    switch (n.kind) {
      case Kind::kGate:
        if (lanes_ == 1) {
          const std::uint64_t m = (mask[0] & 1) << r.port;
          s[0] = (s[0] & ~m) | ((value[0] << r.port) & m);
        } else {
          for (std::uint32_t wd = 0; wd < K; ++wd) {
            std::uint64_t& in = s[2 + wd * n.arity + r.port];
            in = (in & ~mask[wd]) | (value[wd] & mask[wd]);
          }
        }
        break;
      case Kind::kDff: {
        std::uint64_t* changed = s + 2 + n.w_size;
        for (std::uint32_t wd = 0; wd < K; ++wd) {
          std::uint64_t& d = wd == 0 ? s[0] : s[2 + K + wd - 1];
          d = (d & ~mask[wd]) | (value[wd] & mask[wd]);
          changed[wd] |= mask[wd] & lane_mask_[wd];
        }
        break;
      }
      case Kind::kInput:
        break;  // no port: compile() admits no data to an input
    }
  }

  for (const LpId lp : touched_) {
    Node& n = nodes_[lp];
    switch (n.kind) {
      case Kind::kGate: exec_gate(lp, n); break;
      case Kind::kDff: exec_dff(lp, n); break;
      case Kind::kInput: exec_input(lp, n); break;
    }
    if (event_cost_ns_ > 0) util::busy_spin_ns(event_cost_ns_);
  }

  cur_.swap(next_);
  next_.clear();
  cur_payload_.swap(next_payload_);
  next_payload_.clear();
}

void FlatEngine::exec_gate(LpId lp, Node& n) {
  std::uint64_t* s = words_.data() + n.state;
  const std::uint32_t K = k_;
  std::uint64_t* w = s + 2;
  std::uint64_t out[kMaxLaneWords];
  std::uint64_t diff[kMaxLaneWords];
  std::uint64_t any = 0;
  for (std::uint32_t wd = 0; wd < K; ++wd) {
    std::uint64_t o =
        lanes_ == 1 ? std::uint64_t{eval_gate(n.type, s[0], n.arity)}
                    : eval_gate_word(n.type, w + wd * n.arity, n.arity) &
                          lane_mask_[wd];
    o = apply_stuck(n, wd, o);
    const std::uint64_t cur = wd == 0 ? s[1] : w[n.arity * K + wd - 1];
    out[wd] = o;
    diff[wd] = o ^ cur;
    any |= diff[wd];
  }
  if (any != 0) {
    s[1] = out[0];
    for (std::uint32_t wd = 1; wd < K; ++wd) w[n.arity * K + wd - 1] = out[wd];
    emit(lp, n, out, diff);
  }
  if (n.observe) {
    s[0] |= divergence(out[0], out[0], lane_mask_[0]);
    for (std::uint32_t wd = 1; wd < K; ++wd) {
      w[n.arity * K + (K - 1) + wd - 1] |=
          divergence(out[wd], out[0], lane_mask_[wd]);
    }
  }
}

void FlatEngine::exec_dff(LpId lp, Node& n) {
  std::uint64_t* s = words_.data() + n.state;
  const std::uint32_t K = k_;
  std::uint64_t* w = s + 2;
  const std::uint64_t* changed = w + n.w_size;
  std::uint64_t any_changed = 0;
  for (std::uint32_t wd = 0; wd < K; ++wd) any_changed |= changed[wd];
  if (n.ticks == 0) {
    if (any_changed == 0) return;
    // Arm the changed lanes for the next edge.
    if (lanes_ > 1) {
      for (std::uint32_t wd = 0; wd < K; ++wd) w[wd] |= changed[wd];
    }
    const SimTime edge = next_edge(lp, now_ + 1);
    if (edge <= end_) push_tick(lp, edge);
    return;
  }

  // A lane samples at the init edge and at edges it armed; a lane whose D
  // changed on an edge it did not arm arms the next one.
  const bool init_edge = now_ == timing_[lp].phase;
  std::uint64_t rearm = 0;
  std::uint64_t q[kMaxLaneWords];
  std::uint64_t diff[kMaxLaneWords];
  std::uint64_t any_diff = 0;
  for (std::uint32_t wd = 0; wd < K; ++wd) {
    std::uint64_t sample = lane_mask_[wd];
    if (lanes_ > 1) {
      if (!init_edge) sample &= w[wd];
      w[wd] = changed[wd] & ~sample;
      rearm |= w[wd];
    }
    const std::uint64_t d = wd == 0 ? s[0] : w[K + wd - 1];
    const std::uint64_t cur = wd == 0 ? s[1] : w[2 * K - 1 + wd - 1];
    const std::uint64_t qw = apply_stuck(
        n, wd, ((cur & ~sample) | (d & sample)) & lane_mask_[wd]);
    q[wd] = qw;
    diff[wd] = qw ^ cur;
    any_diff |= diff[wd];
  }
  if (rearm != 0) {
    const SimTime edge = next_edge(lp, now_ + 1);
    if (edge <= end_) push_tick(lp, edge);
  }
  if (any_diff != 0) {
    s[1] = q[0];
    for (std::uint32_t wd = 1; wd < K; ++wd) w[2 * K - 1 + wd - 1] = q[wd];
    emit(lp, n, q, diff);
  }
  if (n.observe) {
    for (std::uint32_t wd = 0; wd < K; ++wd) {
      w[3 * K - 2 + wd] |= divergence(q[wd], q[0], lane_mask_[wd]);
    }
  }
}

void FlatEngine::exec_input(LpId lp, Node& n) {
  if (n.ticks == 0) return;
  std::uint64_t* s = words_.data() + n.state;
  const std::uint32_t K = k_;
  std::uint64_t* w = s + 2;
  const Timing& tm = timing_[lp];
  std::uint64_t index = now_ / tm.period;
  if (tm.drift_at != 0 && (now_ < tm.drift_at) != tm.hot_first) {
    index = tm.hot_first ? tm.drift_at / tm.period : 0;  // cold: frozen
  }
  std::uint64_t v[kMaxLaneWords];
  std::uint64_t diff[kMaxLaneWords];
  std::uint64_t any = 0;
  for (std::uint32_t wd = 0; wd < K; ++wd) {
    const std::uint64_t vw = apply_stuck(
        n, wd,
        BatchInputLp::vector_word(tm.seed, lp, index, lanes_, tm.uniform, wd));
    const std::uint64_t cur = wd == 0 ? s[1] : w[wd - 1];
    v[wd] = vw;
    diff[wd] = vw ^ cur;
    any |= diff[wd];
  }
  if (any != 0) {
    s[1] = v[0];
    for (std::uint32_t wd = 1; wd < K; ++wd) w[wd - 1] = v[wd];
    emit(lp, n, v, diff);
  }
  if (n.observe) {
    s[0] |= divergence(v[0], v[0], lane_mask_[0]);
    for (std::uint32_t wd = 1; wd < K; ++wd) {
      w[(K - 1) + wd - 1] |= divergence(v[wd], v[0], lane_mask_[wd]);
    }
  }
  const SimTime next = now_ + tm.period;
  if (next <= end_) push_tick(lp, next);
}

}  // namespace

SeqStats simulate_sequential(const std::vector<warped::LogicalProcess*>& lps,
                             warped::SimTime end_time,
                             std::uint64_t event_cost_ns) {
  PLS_CHECK(!lps.empty());
  util::WallTimer timer;
  FlatEngine engine(lps, end_time, event_cost_ns);
  engine.run();
  SeqStats out;
  engine.export_to(out);
  out.wall_seconds = timer.elapsed_seconds();
  return out;
}

}  // namespace pls::logicsim
