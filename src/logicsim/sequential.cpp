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

/// One LP's record, its state offset, its per-tick scratch and its counts:
/// one cache line.
struct alignas(64) Node : LpRecord {
  std::uint32_t state = 0;  ///< offset of `a` in the state words
  std::uint32_t ticks = 0;  ///< self-ticks due at the current tick
  SimTime touched = 0;      ///< 1 + the last tick that touched this LP
  std::uint64_t events = 0;
  std::uint64_t lane_work = 0;
  std::uint64_t sends = 0;
};
static_assert(sizeof(Node) == 64);

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
  FlatEngine(const FlatModel& model, SimTime end, std::uint64_t event_cost_ns)
      : model_(model), end_(end), event_cost_ns_(event_cost_ns),
        lanes_(model.lanes()), k_(lane_words(lanes_)) {
    for (std::uint32_t wd = 0; wd < k_; ++wd) {
      lane_mask_[wd] = lane_mask_word(lanes_, wd);
    }
    compile();
  }

  void run() {
    for (LpId i = 0; i < nodes_.size(); ++i) {
      const Node& n = nodes_[i];
      if (n.kind != LpKind::kDff) {
        push_tick(i, 0);  // power-on evaluation and vector 0
      } else if (model_.clock_phase() <= end_) {
        push_tick(i, model_.clock_phase());
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
  void compile();

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
    if (n.kind == LpKind::kDff) {
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
    for (const FanoutPort& fp : model_.fanouts(n)) {
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

  SimTime next_edge(SimTime t) const {
    const SimTime phase = model_.clock_phase();
    const SimTime period = model_.clock_period();
    if (t <= phase) return phase;
    return phase + (t - phase + period - 1) / period * period;
  }

  std::uint64_t apply_stuck(const Node& n, std::uint32_t wd,
                            std::uint64_t o) const {
    const std::uint64_t* sa = model_.stuck_words(n);
    if (sa == nullptr) return o;
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

  const FlatModel& model_;
  SimTime end_;
  std::uint64_t event_cost_ns_;
  std::uint32_t lanes_;
  std::uint32_t k_;  ///< lane words per signal
  std::array<std::uint64_t, kMaxLaneWords> lane_mask_{};

  std::vector<Node> nodes_;
  /// Every LP's LpState (a, b, then w); a flip-flop's is followed by K
  /// words of the lanes its D changed on at the current tick.
  std::vector<std::uint64_t> words_;

  SimTime now_ = 0;
  std::vector<LpId> touched_;
  std::vector<Record> cur_, next_;
  std::vector<std::uint64_t> cur_payload_, next_payload_;
  std::array<std::vector<LpId>, kSlots> ring_;
  std::size_t in_ring_ = 0;
  std::vector<std::pair<SimTime, LpId>> later_;  ///< min-heap past the ring
};

void FlatEngine::compile() {
  nodes_.resize(model_.size());
  std::size_t words = 0;
  for (LpId i = 0; i < nodes_.size(); ++i) {
    Node& node = nodes_[i];
    static_cast<LpRecord&>(node) = model_.lp(i);
    node.state = static_cast<std::uint32_t>(words);
    words += 2 + node.w_size + (node.kind == LpKind::kDff ? k_ : 0);
  }
  // Every LP starts from the all-zero LpState (NetlistLp::initial_state).
  words_.assign(words, 0);
  // Every port a record can name exists: a fanin of a gate, the D pin of a
  // flip-flop, never an input.
  for (const Node& node : nodes_) {
    for (const FanoutPort& fp : model_.fanouts(node)) {
      PLS_CHECK_MSG(fp.target < nodes_.size(),
                    "fanout to LP " << fp.target << " outside the model");
      PLS_CHECK_MSG(fp.port < nodes_[fp.target].arity,
                    "fanout to port " << fp.port << " of LP " << fp.target);
    }
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
      case LpKind::kGate:
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
      case LpKind::kDff: {
        std::uint64_t* changed = s + 2 + n.w_size;
        for (std::uint32_t wd = 0; wd < K; ++wd) {
          std::uint64_t& d = wd == 0 ? s[0] : s[2 + K + wd - 1];
          d = (d & ~mask[wd]) | (value[wd] & mask[wd]);
          changed[wd] |= mask[wd] & lane_mask_[wd];
        }
        break;
      }
      case LpKind::kInput:
        break;  // no port: compile() admits no data to an input
    }
  }

  for (const LpId lp : touched_) {
    Node& n = nodes_[lp];
    switch (n.kind) {
      case LpKind::kGate: exec_gate(lp, n); break;
      case LpKind::kDff: exec_dff(lp, n); break;
      case LpKind::kInput: exec_input(lp, n); break;
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
    const SimTime edge = next_edge(now_ + 1);
    if (edge <= end_) push_tick(lp, edge);
    return;
  }

  // A lane samples at the init edge and at edges it armed; a lane whose D
  // changed on an edge it did not arm arms the next one.
  const bool init_edge = now_ == model_.clock_phase();
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
    const SimTime edge = next_edge(now_ + 1);
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
  const SimTime period = model_.stim_period();
  const SimTime drift_at = model_.stim_drift_at();
  std::uint64_t index = now_ / period;
  if (drift_at != 0 && (now_ < drift_at) != n.hot_first) {
    index = n.hot_first ? drift_at / period : 0;  // cold: frozen
  }
  std::uint64_t v[kMaxLaneWords];
  std::uint64_t diff[kMaxLaneWords];
  std::uint64_t any = 0;
  for (std::uint32_t wd = 0; wd < K; ++wd) {
    const std::uint64_t vw = apply_stuck(
        n, wd,
        vector_word(model_.stim_seed(), lp, index, lanes_,
                    model_.uniform_stimulus(), wd));
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
  const SimTime next = now_ + period;
  if (next <= end_) push_tick(lp, next);
}

/// The model `lps` elaborates: every LP must be the NetlistLp of one
/// model at its own index, and the LPs must cover that model.
const FlatModel& model_of(const std::vector<warped::LogicalProcess*>& lps) {
  const FlatModel* model = nullptr;
  for (LpId i = 0; i < lps.size(); ++i) {
    const auto* lp = dynamic_cast<const NetlistLp*>(lps[i]);
    PLS_CHECK_MSG(lp != nullptr,
                  "LP " << i << " is not a netlist behaviour (NetlistLp)");
    if (model == nullptr) model = &lp->model();
    PLS_CHECK_MSG(&lp->model() == model,
                  "LP " << i << " belongs to another model than LP 0");
    PLS_CHECK_MSG(lp->id() == i,
                  "LP " << i << " is LP " << lp->id() << " of its model");
  }
  PLS_CHECK_MSG(lps.size() == model->size(),
                "the run holds " << lps.size() << " of the model's "
                                 << model->size() << " LPs");
  return *model;
}

}  // namespace

SeqStats simulate_sequential(const std::vector<warped::LogicalProcess*>& lps,
                             warped::SimTime end_time,
                             std::uint64_t event_cost_ns) {
  PLS_CHECK(!lps.empty());
  util::WallTimer timer;
  FlatEngine engine(model_of(lps), end_time, event_cost_ns);
  engine.run();
  SeqStats out;
  engine.export_to(out);
  out.wall_seconds = timer.elapsed_seconds();
  return out;
}

}  // namespace pls::logicsim
