#include "logicsim/netlist_lps.hpp"

#include "logicsim/gate_eval.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace pls::logicsim {

using warped::Context;
using warped::EventBatch;
using warped::kTickPort;
using warped::LpState;
using warped::SimTime;

namespace {

/// Divergence of each active lane against lane 0: bit j of word wd set iff
/// that value bit differs from value bit 0 of word 0 (the global reference
/// lane).  Word 0's bit 0 is always clear (lane 0 is its own reference),
/// so observing gates accumulate only genuine fault effects.
inline std::uint64_t divergence_from_lane0(std::uint64_t word,
                                           std::uint64_t ref_word0,
                                           std::uint64_t active) noexcept {
  return (word ^ ((ref_word0 & 1) ? ~std::uint64_t{0} : 0)) & active;
}

/// Check the lane configuration every behaviour shares and return the
/// stuck-at words of a faulted LP: K mask words, then K value words, both
/// clipped to the active lanes.  Fault-free LPs (empty `sa_mask`) get null.
std::unique_ptr<std::uint64_t[]> make_stuck_words(
    std::uint32_t lanes, const std::vector<std::uint64_t>& sa_mask,
    const std::vector<std::uint64_t>& sa_value, bool observe) {
  PLS_CHECK(lanes >= 1 && lanes <= kMaxLanes);
  PLS_CHECK(sa_mask.size() <= lane_words(lanes));
  PLS_CHECK(sa_value.size() <= sa_mask.size());
  PLS_CHECK_MSG(!observe || lanes >= 2,
                "divergence observation needs lanes >= 2 (lane 0 is the "
                "fault-free reference)");
  if (sa_mask.empty()) return nullptr;
  const std::uint32_t K = lane_words(lanes);
  auto sa = std::make_unique<std::uint64_t[]>(2 * K);
  for (std::uint32_t wd = 0; wd < sa_mask.size(); ++wd) {
    sa[wd] = sa_mask[wd] & lane_mask_word(lanes, wd);
    if (wd < sa_value.size()) sa[K + wd] = sa_value[wd] & sa[wd];
  }
  return sa;
}

/// Force the stuck-at lanes of output word `wd` (a no-op when `sa` is null).
inline std::uint64_t apply_stuck(const std::uint64_t* sa, std::uint32_t K,
                                 std::uint32_t wd, std::uint64_t o) noexcept {
  return sa == nullptr ? o : (o & ~sa[wd]) | sa[K + wd];
}

/// Send the K output words and their change masks to every fanout port
/// `delay` after now, unless that lies beyond the horizon.
void emit(Context& ctx, const std::vector<FanoutPort>& fanouts, SimTime delay,
          const std::uint64_t* values, const std::uint64_t* masks,
          std::uint32_t K) {
  const SimTime at = ctx.now() + delay;
  if (at > ctx.end_time()) return;
  for (const auto& f : fanouts) {
    ctx.send_wide(f.target, at, f.port, values, masks, K);
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// BatchGateLp
// ---------------------------------------------------------------------------

BatchGateLp::BatchGateLp(circuit::GateType type, std::uint32_t arity,
                         std::vector<FanoutPort> fanouts, std::uint32_t lanes,
                         std::vector<std::uint64_t> sa_mask,
                         std::vector<std::uint64_t> sa_value, bool observe)
    : fanouts_(std::move(fanouts)), type_(type), observe_(observe),
      lanes_(static_cast<std::uint16_t>(lanes)), arity_(arity),
      stuck_(make_stuck_words(lanes, sa_mask, sa_value, observe)) {
  PLS_CHECK_MSG(arity_ >= 1 && arity_ <= 64,
                "gate arity must be in [1,64] to pack into one state word");
}

warped::LpState BatchGateLp::initial_state() const {
  LpState s;
  // Word-major fanin words, then output words 1..K-1, then (observing
  // gates) divergence words 1..K-1 — see the header's layout comment.
  // One lane packs its fanins into `a` and needs no words at all.
  const std::uint32_t K = lane_words(lanes_);
  if (lanes_ > 1) s.w.assign(arity_ * K + (K - 1) + (observe_ ? K - 1 : 0), 0);
  return s;
}

void BatchGateLp::init(Context& ctx) {
  // Power-on evaluation at time 0: gates whose zero-input evaluation is 1
  // (NAND, NOR, NOT, XNOR) must announce it, or downstream logic would
  // assume 0 forever.
  ctx.schedule_self(0);
}

void BatchGateLp::execute(Context& ctx, EventBatch batch) {
  LpState& s = ctx.state();
  const std::uint32_t K = lane_words(lanes_);
  const bool packed = lanes_ == 1;
  for (const auto& ev : batch) {
    if (ev.port == kTickPort) continue;  // power-on tick: just evaluate
    PLS_DCHECK(ev.port < arity_);
    PLS_DCHECK(ev.payload_words() == K);
    // Masked application: lanes outside the mask keep their old value, so
    // an event can never perturb a lane whose driver did not change.
    if (packed) {
      const std::uint64_t m = (ev.mask & 1) << ev.port;
      s.a = (s.a & ~m) | ((ev.value << ev.port) & m);
      continue;
    }
    for (std::uint32_t wd = 0; wd < K; ++wd) {
      std::uint64_t& slot = s.w[wd * arity_ + ev.port];
      const std::uint64_t m = ev.mask_word(wd);
      slot = (slot & ~m) | (ev.value_word(wd) & m);
    }
  }
  std::uint64_t out[kMaxLaneWords];
  std::uint64_t diff[kMaxLaneWords];
  std::uint64_t any = 0;
  for (std::uint32_t wd = 0; wd < K; ++wd) {
    std::uint64_t o =
        packed ? std::uint64_t{eval_gate(type_, s.a, arity_)}
               : eval_gate_word(type_, s.w.data() + wd * arity_, arity_) &
                     lane_mask_word(lanes_, wd);
    o = apply_stuck(stuck_.get(), K, wd, o);
    const std::uint64_t cur = wd == 0 ? s.b : s.w[arity_ * K + wd - 1];
    out[wd] = o;
    diff[wd] = o ^ cur;
    any |= diff[wd];
  }
  if (any != 0) {
    s.b = out[0];
    for (std::uint32_t wd = 1; wd < K; ++wd) s.w[arity_ * K + wd - 1] = out[wd];
    emit(ctx, fanouts_, ModelOptions::gate_delay, out, diff, K);
  }
  if (observe_) {
    s.a |= divergence_from_lane0(out[0], out[0], lane_mask_word(lanes_, 0));
    for (std::uint32_t wd = 1; wd < K; ++wd) {
      s.w[arity_ * K + (K - 1) + wd - 1] |=
          divergence_from_lane0(out[wd], out[0], lane_mask_word(lanes_, wd));
    }
  }
}

// ---------------------------------------------------------------------------
// BatchDffLp
// ---------------------------------------------------------------------------

BatchDffLp::BatchDffLp(std::vector<FanoutPort> fanouts, SimTime period,
                       SimTime phase, std::uint32_t lanes,
                       std::vector<std::uint64_t> sa_mask,
                       std::vector<std::uint64_t> sa_value, bool observe)
    : fanouts_(std::move(fanouts)), period_(period), phase_(phase),
      lanes_(lanes), observe_(observe),
      stuck_(make_stuck_words(lanes, sa_mask, sa_value, observe)) {
  PLS_CHECK(period_ >= 1);
  PLS_CHECK(phase_ >= 1);
}

warped::LpState BatchDffLp::initial_state() const {
  LpState s;
  // Armed words, D words 1..K-1, Q words 1..K-1, then (observing DFFs)
  // divergence words 0..K-1 — see the header's layout comment.  One lane
  // keeps D and Q in a/b and needs no armed word.
  const std::uint32_t K = lane_words(lanes_);
  if (lanes_ > 1) s.w.assign(3 * K - 2 + (observe_ ? K : 0), 0);
  return s;
}

void BatchDffLp::init(Context& ctx) {
  // Clock suppression (standard gate-level optimization): instead of
  // ticking every period to the horizon — which would let every flip-flop
  // race arbitrarily far ahead of its D input and turn each cut D-path
  // into a rollback factory — a sampling tick is scheduled only for the
  // init edge (phase) and the first clock edge after a D change.  The
  // observable behaviour is identical to a free-running clock: Q updates
  // at the first edge at or after the change, using the D value current at
  // that edge.  With two or more lanes arming is tracked *per lane* (state
  // word w[0]): a lane whose D changes exactly on an edge it did not arm
  // captures one period later, so it must not be sampled by an edge some
  // other lane armed.
  if (phase_ <= ctx.end_time()) ctx.schedule_self(phase_);
}

warped::SimTime BatchDffLp::next_edge_at_or_after(SimTime t) const {
  if (t <= phase_) return phase_;
  const SimTime k = (t - phase_ + period_ - 1) / period_;
  return phase_ + k * period_;
}

void BatchDffLp::execute(Context& ctx, EventBatch batch) {
  LpState& s = ctx.state();
  const std::uint32_t K = lane_words(lanes_);
  // Data first, then clock: a D arriving exactly on the edge is captured
  // (by the lanes that own a tick at this edge — see below).
  bool tick = false;
  std::uint64_t changed[kMaxLaneWords] = {};
  std::uint64_t any_changed = 0;
  for (const auto& ev : batch) {
    if (ev.port == kTickPort) {
      tick = true;
    } else {
      PLS_DCHECK(ev.port == 0);
      PLS_DCHECK(ev.payload_words() == K);
      for (std::uint32_t wd = 0; wd < K; ++wd) {
        std::uint64_t& d = wd == 0 ? s.a : s.w[K + wd - 1];
        const std::uint64_t m = ev.mask_word(wd);
        d = (d & ~m) | (ev.value_word(wd) & m);
        changed[wd] |= m & lane_mask_word(lanes_, wd);
        any_changed |= changed[wd];
      }
    }
  }

  if (any_changed != 0 && !tick) {
    // Arm the changed lanes for the next edge.  All armed lanes always
    // pend the *same* edge: arming times since the last processed edge
    // map to one next_edge, and the tick batch at that edge re-arms
    // on-edge changes afresh.  Two D changes within one period both
    // target that edge; the duplicate tick lands in one batch and samples
    // once.
    if (lanes_ > 1) {
      for (std::uint32_t wd = 0; wd < K; ++wd) s.w[wd] |= changed[wd];
    }
    const SimTime edge = next_edge_at_or_after(ctx.now() + 1);
    if (edge <= ctx.end_time()) ctx.schedule_self(edge);
    return;
  }
  if (!tick) return;

  // Per-lane clock suppression: lane j samples at this edge iff its
  // one-lane twin has a tick here — the init edge (sampled by everyone) or
  // an edge lane j armed itself.  A lane whose D changed exactly on a
  // foreign-armed edge instead arms the next edge, like its twin.  One
  // lane owns every tick it gets, so it always samples.
  std::uint64_t rearm = 0;
  std::uint64_t q[kMaxLaneWords];
  std::uint64_t diff[kMaxLaneWords];
  std::uint64_t any_diff = 0;
  for (std::uint32_t wd = 0; wd < K; ++wd) {
    std::uint64_t sample = lane_mask_word(lanes_, wd);
    if (lanes_ > 1) {
      if (ctx.now() != phase_) sample &= s.w[wd];
      s.w[wd] = changed[wd] & ~sample;
      rearm |= s.w[wd];
    }
    const std::uint64_t d = wd == 0 ? s.a : s.w[K + wd - 1];
    const std::uint64_t cur = wd == 0 ? s.b : s.w[2 * K - 1 + wd - 1];
    std::uint64_t qw = ((cur & ~sample) | (d & sample)) &
                       lane_mask_word(lanes_, wd);
    qw = apply_stuck(stuck_.get(), K, wd, qw);
    q[wd] = qw;
    diff[wd] = qw ^ cur;
    any_diff |= diff[wd];
  }
  if (rearm != 0) {
    const SimTime edge = next_edge_at_or_after(ctx.now() + 1);
    if (edge <= ctx.end_time()) ctx.schedule_self(edge);
  }

  if (any_diff != 0) {
    s.b = q[0];
    for (std::uint32_t wd = 1; wd < K; ++wd) s.w[2 * K - 1 + wd - 1] = q[wd];
    emit(ctx, fanouts_, ModelOptions::dff_delay, q, diff, K);
  }
  if (observe_) {
    for (std::uint32_t wd = 0; wd < K; ++wd) {
      s.w[3 * K - 2 + wd] |=
          divergence_from_lane0(q[wd], q[0], lane_mask_word(lanes_, wd));
    }
  }
}

// ---------------------------------------------------------------------------
// BatchInputLp
// ---------------------------------------------------------------------------

BatchInputLp::BatchInputLp(std::vector<FanoutPort> fanouts, SimTime period,
                           std::uint64_t seed, std::uint32_t lanes,
                           bool uniform_stimulus, SimTime drift_at,
                           bool hot_first, std::vector<std::uint64_t> sa_mask,
                           std::vector<std::uint64_t> sa_value, bool observe)
    : fanouts_(std::move(fanouts)), period_(period), seed_(seed),
      drift_at_(drift_at), lanes_(lanes), uniform_(uniform_stimulus),
      hot_first_(hot_first), observe_(observe),
      stuck_(make_stuck_words(lanes, sa_mask, sa_value, observe)) {
  PLS_CHECK(period_ >= 1);
}

warped::LpState BatchInputLp::initial_state() const {
  LpState s;
  // Stimulus words 1..K-1, then (observing inputs) divergence words
  // 1..K-1 — see the header's layout comment.
  const std::uint32_t K = lane_words(lanes_);
  s.w.assign((K - 1) + (observe_ ? K - 1 : 0), 0);
  return s;
}

bool BatchInputLp::vector_bit(std::uint64_t seed, warped::LpId lp,
                              std::uint64_t n) noexcept {
  util::SplitMix64 h(seed ^ (0x9e3779b97f4a7c15ULL * (lp + 1)) ^
                     (n * 0xbf58476d1ce4e5b9ULL));
  return (h.next() & 1) != 0;
}

std::uint64_t BatchInputLp::vector_word(std::uint64_t seed, warped::LpId lp,
                                        std::uint64_t n, std::uint32_t lanes,
                                        bool uniform,
                                        std::uint32_t word) noexcept {
  const std::uint64_t active = lane_mask_word(lanes, word);
  if (uniform) {
    return (vector_bit(seed, lp, n) ? ~std::uint64_t{0} : 0) & active;
  }
  std::uint64_t w = 0;
  for (std::uint32_t b = 0; b < 64; ++b) {
    const std::uint32_t j = word * 64 + b;
    if (j >= lanes) break;
    w |= std::uint64_t{vector_bit(lane_seed(seed, j), lp, n)} << b;
  }
  return w;
}

void BatchInputLp::init(Context& ctx) {
  ctx.schedule_self(0);  // vector 0 applies at time 0
}

void BatchInputLp::execute(Context& ctx, EventBatch batch) {
  LpState& s = ctx.state();
  const std::uint32_t K = lane_words(lanes_);
  bool tick = false;
  for (const auto& ev : batch) tick |= (ev.port == kTickPort);
  if (!tick) return;

  std::uint64_t n = ctx.now() / period_;
  if (drift_at_ != 0) {
    // Cold phase: hold one frozen vector index (the boundary index), so
    // the driven cone sees a constant and goes quiet.  Pure function of
    // virtual time — identical across rollbacks and node counts, and all
    // lanes freeze and thaw together.
    const bool hot = (ctx.now() < drift_at_) == hot_first_;
    if (!hot) n = hot_first_ ? drift_at_ / period_ : 0;
  }
  std::uint64_t v[kMaxLaneWords];
  std::uint64_t diff[kMaxLaneWords];
  std::uint64_t any = 0;
  for (std::uint32_t wd = 0; wd < K; ++wd) {
    std::uint64_t vw = vector_word(seed_, ctx.self(), n, lanes_, uniform_, wd);
    vw = apply_stuck(stuck_.get(), K, wd, vw);
    const std::uint64_t cur = wd == 0 ? s.b : s.w[wd - 1];
    v[wd] = vw;
    diff[wd] = vw ^ cur;
    any |= diff[wd];
  }
  if (any != 0) {
    s.b = v[0];
    for (std::uint32_t wd = 1; wd < K; ++wd) s.w[wd - 1] = v[wd];
    emit(ctx, fanouts_, ModelOptions::gate_delay, v, diff, K);
  }
  if (observe_) {
    s.a |= divergence_from_lane0(v[0], v[0], lane_mask_word(lanes_, 0));
    for (std::uint32_t wd = 1; wd < K; ++wd) {
      s.w[(K - 1) + wd - 1] |=
          divergence_from_lane0(v[wd], v[0], lane_mask_word(lanes_, wd));
    }
  }
  const SimTime next = ctx.now() + period_;
  if (next <= ctx.end_time()) ctx.schedule_self(next);
}

// ---------------------------------------------------------------------------
// Elaboration
// ---------------------------------------------------------------------------

SimModel build_model(const circuit::Circuit& c, const ModelOptions& opt) {
  PLS_CHECK_MSG(c.frozen(), "build_model requires a frozen circuit");
  PLS_CHECK_MSG(opt.lanes >= 1 && opt.lanes <= kMaxLanes,
                "lanes must be in [1," << kMaxLanes << "], got "
                                       << opt.lanes);
  PLS_CHECK_MSG(opt.faults.empty() || opt.lanes >= 2,
                "fault simulation needs lanes >= 2 (lane 0 is fault-free)");
  PLS_CHECK_MSG(opt.faults.size() + 1 <= opt.lanes,
                "need " << opt.faults.size() + 1 << " lanes for "
                        << opt.faults.size()
                        << " faults plus the fault-free lane 0");

  // For every gate, the input port its signal occupies at each fanout:
  // port = index of the driver within the target's fanin list.  A driver
  // feeding the same target on several pins gets one FanoutPort per pin.
  std::vector<std::vector<FanoutPort>> fanout_ports(c.size());
  for (circuit::GateId g = 0; g < c.size(); ++g) {
    const auto fins = c.fanins(g);
    for (std::uint32_t port = 0; port < fins.size(); ++port) {
      fanout_ports[fins[port]].push_back(
          FanoutPort{static_cast<warped::LpId>(g), port});
    }
  }

  // Drifting stimulus: split the primary inputs into two halves by
  // ordinal; the first half is hot before stim_drift_at, the second after.
  std::size_t num_inputs = 0;
  for (circuit::GateId g = 0; g < c.size(); ++g) {
    if (c.type(g) == circuit::GateType::kInput) ++num_inputs;
  }
  std::size_t input_ordinal = 0;

  // Stuck-at injection words: fault i forces its gate's output on lane
  // i + 1 (lane 0 stays the fault-free reference).  One mask/value word
  // per lane word, allocated lazily — fault-free gates pass empty vectors.
  const std::uint32_t K = lane_words(opt.lanes);
  std::vector<std::vector<std::uint64_t>> sa_mask(c.size()),
      sa_value(c.size());
  for (std::size_t i = 0; i < opt.faults.size(); ++i) {
    const StuckAtFault& f = opt.faults[i];
    PLS_CHECK_MSG(f.gate < c.size(),
                  "fault " << i << " names gate " << f.gate
                           << " outside the circuit");
    if (sa_mask[f.gate].empty()) {
      sa_mask[f.gate].assign(K, 0);
      sa_value[f.gate].assign(K, 0);
    }
    const std::size_t lane = i + 1;
    const std::uint64_t bit = std::uint64_t{1} << (lane % 64);
    sa_mask[f.gate][lane / 64] |= bit;
    if (f.stuck_value) sa_value[f.gate][lane / 64] |= bit;
  }
  const bool fault_mode = !opt.faults.empty();

  SimModel model;
  model.options = opt;
  model.lps.reserve(c.size());
  for (circuit::GateId g = 0; g < c.size(); ++g) {
    // Primary outputs observe lane divergence only in fault mode; plain
    // runs keep the accumulator off so per-lane state extraction stays a
    // pure projection.
    const bool observe = fault_mode && c.is_output(g);
    switch (c.type(g)) {
      case circuit::GateType::kInput: {
        const bool hot_first = input_ordinal < (num_inputs + 1) / 2;
        ++input_ordinal;
        model.lps.push_back(std::make_unique<BatchInputLp>(
            std::move(fanout_ports[g]), opt.stim_period, opt.stim_seed,
            opt.lanes, opt.uniform_stimulus, opt.stim_drift_at,
            hot_first, sa_mask[g], sa_value[g], observe));
        break;
      }
      case circuit::GateType::kDff:
        model.lps.push_back(std::make_unique<BatchDffLp>(
            std::move(fanout_ports[g]), opt.clock_period, opt.clock_phase,
            opt.lanes, sa_mask[g], sa_value[g], observe));
        break;
      default:
        model.lps.push_back(std::make_unique<BatchGateLp>(
            c.type(g), static_cast<std::uint32_t>(c.fanins(g).size()),
            std::move(fanout_ports[g]), opt.lanes, sa_mask[g], sa_value[g],
            observe));
        break;
    }
  }
  return model;
}

}  // namespace pls::logicsim
