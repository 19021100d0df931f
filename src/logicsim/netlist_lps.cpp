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

/// Force the stuck-at lanes of output word `wd` (a no-op when `sa` is null).
inline std::uint64_t apply_stuck(const std::uint64_t* sa, std::uint32_t K,
                                 std::uint32_t wd, std::uint64_t o) noexcept {
  return sa == nullptr ? o : (o & ~sa[wd]) | sa[K + wd];
}

/// Send the K output words and their change masks to every fanout port
/// `delay` after now, unless that lies beyond the horizon.
void emit(Context& ctx, std::span<const FanoutPort> fanouts, SimTime delay,
          const std::uint64_t* values, const std::uint64_t* masks,
          std::uint32_t K) {
  const SimTime at = ctx.now() + delay;
  if (at > ctx.end_time()) return;
  for (const auto& f : fanouts) {
    ctx.send_wide(f.target, at, f.port, values, masks, K);
  }
}

/// Words of LpState::w in the layout NetlistLp documents.
std::uint32_t w_words(LpKind kind, std::uint32_t arity, bool observe,
                      std::uint32_t lanes) {
  const std::uint32_t K = lane_words(lanes);
  const std::uint32_t obs = observe ? 1 : 0;
  switch (kind) {
    case LpKind::kGate:  // fanin words, output words 1.., divergence 1..
      return lanes == 1 ? 0 : arity * K + (K - 1) + obs * (K - 1);
    case LpKind::kDff:  // armed, D 1.., Q 1.., divergence 0..
      return lanes == 1 ? 0 : 3 * K - 2 + obs * K;
    case LpKind::kInput:  // stimulus words 1.., divergence 1..
      return (K - 1) + obs * (K - 1);
  }
  return 0;
}

void execute_gate(const FlatModel& model, const LpRecord& r, Context& ctx,
                  EventBatch batch) {
  LpState& s = ctx.state();
  const std::uint32_t lanes = model.lanes();
  const std::uint32_t K = lane_words(lanes);
  const std::uint32_t arity = r.arity;
  const bool packed = lanes == 1;
  for (const auto& ev : batch) {
    if (ev.port == kTickPort) continue;  // power-on tick: just evaluate
    PLS_DCHECK(ev.port < arity);
    PLS_DCHECK(ev.payload_words() == K);
    // Masked application: lanes outside the mask keep their old value, so
    // an event can never perturb a lane whose driver did not change.
    if (packed) {
      const std::uint64_t m = (ev.mask & 1) << ev.port;
      s.a = (s.a & ~m) | ((ev.value << ev.port) & m);
      continue;
    }
    for (std::uint32_t wd = 0; wd < K; ++wd) {
      std::uint64_t& slot = s.w[wd * arity + ev.port];
      const std::uint64_t m = ev.mask_word(wd);
      slot = (slot & ~m) | (ev.value_word(wd) & m);
    }
  }
  const std::uint64_t* stuck = model.stuck_words(r);
  std::uint64_t out[kMaxLaneWords];
  std::uint64_t diff[kMaxLaneWords];
  std::uint64_t any = 0;
  for (std::uint32_t wd = 0; wd < K; ++wd) {
    std::uint64_t o =
        packed ? std::uint64_t{eval_gate(r.type, s.a, arity)}
               : eval_gate_word(r.type, s.w.data() + wd * arity, arity) &
                     lane_mask_word(lanes, wd);
    o = apply_stuck(stuck, K, wd, o);
    const std::uint64_t cur = wd == 0 ? s.b : s.w[arity * K + wd - 1];
    out[wd] = o;
    diff[wd] = o ^ cur;
    any |= diff[wd];
  }
  if (any != 0) {
    s.b = out[0];
    for (std::uint32_t wd = 1; wd < K; ++wd) s.w[arity * K + wd - 1] = out[wd];
    emit(ctx, model.fanouts(r), ModelOptions::gate_delay, out, diff, K);
  }
  if (r.observe) {
    s.a |= divergence_from_lane0(out[0], out[0], lane_mask_word(lanes, 0));
    for (std::uint32_t wd = 1; wd < K; ++wd) {
      s.w[arity * K + (K - 1) + wd - 1] |=
          divergence_from_lane0(out[wd], out[0], lane_mask_word(lanes, wd));
    }
  }
}

void execute_dff(const FlatModel& model, const LpRecord& r, Context& ctx,
                 EventBatch batch) {
  LpState& s = ctx.state();
  const std::uint32_t lanes = model.lanes();
  const std::uint32_t K = lane_words(lanes);
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
        changed[wd] |= m & lane_mask_word(lanes, wd);
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
    if (lanes > 1) {
      for (std::uint32_t wd = 0; wd < K; ++wd) s.w[wd] |= changed[wd];
    }
    const SimTime edge = model.next_edge_at_or_after(ctx.now() + 1);
    if (edge <= ctx.end_time()) ctx.schedule_self(edge);
    return;
  }
  if (!tick) return;

  // Per-lane clock suppression: lane j samples at this edge iff its
  // one-lane twin has a tick here — the init edge (sampled by everyone) or
  // an edge lane j armed itself.  A lane whose D changed exactly on a
  // foreign-armed edge instead arms the next edge, like its twin.  One
  // lane owns every tick it gets, so it always samples.
  const std::uint64_t* stuck = model.stuck_words(r);
  std::uint64_t rearm = 0;
  std::uint64_t q[kMaxLaneWords];
  std::uint64_t diff[kMaxLaneWords];
  std::uint64_t any_diff = 0;
  for (std::uint32_t wd = 0; wd < K; ++wd) {
    std::uint64_t sample = lane_mask_word(lanes, wd);
    if (lanes > 1) {
      if (ctx.now() != model.clock_phase()) sample &= s.w[wd];
      s.w[wd] = changed[wd] & ~sample;
      rearm |= s.w[wd];
    }
    const std::uint64_t d = wd == 0 ? s.a : s.w[K + wd - 1];
    const std::uint64_t cur = wd == 0 ? s.b : s.w[2 * K - 1 + wd - 1];
    std::uint64_t qw = ((cur & ~sample) | (d & sample)) &
                       lane_mask_word(lanes, wd);
    qw = apply_stuck(stuck, K, wd, qw);
    q[wd] = qw;
    diff[wd] = qw ^ cur;
    any_diff |= diff[wd];
  }
  if (rearm != 0) {
    const SimTime edge = model.next_edge_at_or_after(ctx.now() + 1);
    if (edge <= ctx.end_time()) ctx.schedule_self(edge);
  }

  if (any_diff != 0) {
    s.b = q[0];
    for (std::uint32_t wd = 1; wd < K; ++wd) s.w[2 * K - 1 + wd - 1] = q[wd];
    emit(ctx, model.fanouts(r), ModelOptions::dff_delay, q, diff, K);
  }
  if (r.observe) {
    for (std::uint32_t wd = 0; wd < K; ++wd) {
      s.w[3 * K - 2 + wd] |=
          divergence_from_lane0(q[wd], q[0], lane_mask_word(lanes, wd));
    }
  }
}

void execute_input(const FlatModel& model, const LpRecord& r, warped::LpId id,
                   Context& ctx, EventBatch batch) {
  LpState& s = ctx.state();
  const std::uint32_t lanes = model.lanes();
  const std::uint32_t K = lane_words(lanes);
  bool tick = false;
  for (const auto& ev : batch) tick |= (ev.port == kTickPort);
  if (!tick) return;

  const SimTime period = model.stim_period();
  const SimTime drift_at = model.stim_drift_at();
  std::uint64_t n = ctx.now() / period;
  if (drift_at != 0) {
    // Cold phase: hold one frozen vector index (the boundary index), so
    // the driven cone sees a constant and goes quiet.  Pure function of
    // virtual time — identical across rollbacks and node counts, and all
    // lanes freeze and thaw together.
    const bool hot = (ctx.now() < drift_at) == r.hot_first;
    if (!hot) n = r.hot_first ? drift_at / period : 0;
  }
  const std::uint64_t* stuck = model.stuck_words(r);
  std::uint64_t v[kMaxLaneWords];
  std::uint64_t diff[kMaxLaneWords];
  std::uint64_t any = 0;
  for (std::uint32_t wd = 0; wd < K; ++wd) {
    std::uint64_t vw = vector_word(model.stim_seed(), id, n, lanes,
                                   model.uniform_stimulus(), wd);
    vw = apply_stuck(stuck, K, wd, vw);
    const std::uint64_t cur = wd == 0 ? s.b : s.w[wd - 1];
    v[wd] = vw;
    diff[wd] = vw ^ cur;
    any |= diff[wd];
  }
  if (any != 0) {
    s.b = v[0];
    for (std::uint32_t wd = 1; wd < K; ++wd) s.w[wd - 1] = v[wd];
    emit(ctx, model.fanouts(r), ModelOptions::gate_delay, v, diff, K);
  }
  if (r.observe) {
    s.a |= divergence_from_lane0(v[0], v[0], lane_mask_word(lanes, 0));
    for (std::uint32_t wd = 1; wd < K; ++wd) {
      s.w[(K - 1) + wd - 1] |=
          divergence_from_lane0(v[wd], v[0], lane_mask_word(lanes, wd));
    }
  }
  const SimTime next = ctx.now() + period;
  if (next <= ctx.end_time()) ctx.schedule_self(next);
}

}  // namespace

// ---------------------------------------------------------------------------
// FlatModel
// ---------------------------------------------------------------------------

SimTime FlatModel::next_edge_at_or_after(SimTime t) const noexcept {
  if (t <= clock_phase_) return clock_phase_;
  const SimTime k = (t - clock_phase_ + clock_period_ - 1) / clock_period_;
  return clock_phase_ + k * clock_period_;
}

FlatModelBuilder::FlatModelBuilder(const ModelOptions& opt) : opt_(opt) {
  PLS_CHECK_MSG(opt.lanes >= 1 && opt.lanes <= kMaxLanes,
                "lanes must be in [1," << kMaxLanes << "], got "
                                       << opt.lanes);
  PLS_CHECK_MSG(opt.faults.empty() || opt.lanes >= 2,
                "fault simulation needs lanes >= 2 (lane 0 is fault-free)");
  PLS_CHECK_MSG(opt.faults.size() + 1 <= opt.lanes,
                "need " << opt.faults.size() + 1 << " lanes for "
                        << opt.faults.size()
                        << " faults plus the fault-free lane 0");
  PLS_CHECK(opt.clock_period >= 1);
  PLS_CHECK(opt.clock_phase >= 1);
  PLS_CHECK(opt.stim_period >= 1);
  model_.lanes_ = opt.lanes;
  model_.clock_period_ = opt.clock_period;
  model_.clock_phase_ = opt.clock_phase;
  model_.stim_period_ = opt.stim_period;
  model_.stim_drift_at_ = opt.stim_drift_at;
  model_.stim_seed_ = opt.stim_seed;
  model_.uniform_stimulus_ = opt.uniform_stimulus;
}

void FlatModelBuilder::add(circuit::GateType type, std::uint32_t arity,
                           std::span<const FanoutPort> fanouts,
                           bool primary_output) {
  // A one-lane gate packs fanin p into bit p of one state word.
  static_assert(circuit::max_arity(circuit::GateType::kAnd) <= 64);
  const auto lo = static_cast<std::uint32_t>(circuit::min_arity(type));
  const auto hi = static_cast<std::uint32_t>(circuit::max_arity(type));
  PLS_CHECK_MSG(arity >= lo && arity <= hi,
                "LP " << model_.lps_.size() << " (" << circuit::to_string(type)
                      << ") has " << arity << " input pins, not " << lo
                      << ".." << hi);
  LpRecord r;
  r.kind = type == circuit::GateType::kInput ? LpKind::kInput
           : type == circuit::GateType::kDff ? LpKind::kDff
                                             : LpKind::kGate;
  r.type = type;
  r.arity = static_cast<std::uint8_t>(arity);
  // Primary outputs observe lane divergence only in fault mode; plain runs
  // keep the accumulator off so per-lane state extraction stays a pure
  // projection.
  r.observe = primary_output && !opt_.faults.empty();
  r.w_size = w_words(r.kind, arity, r.observe, opt_.lanes);
  r.fan_begin = static_cast<std::uint32_t>(model_.ports_.size());
  model_.ports_.insert(model_.ports_.end(), fanouts.begin(), fanouts.end());
  r.fan_end = static_cast<std::uint32_t>(model_.ports_.size());
  model_.lps_.push_back(r);
}

FlatModel FlatModelBuilder::finish() {
  std::vector<LpRecord>& lps = model_.lps_;
  // Stuck-at words: fault i forces its gate's output on lane i + 1 (lane 0
  // stays the fault-free reference), K mask words then K value words per
  // faulted LP.
  const std::uint32_t K = lane_words(opt_.lanes);
  for (std::size_t i = 0; i < opt_.faults.size(); ++i) {
    const StuckAtFault& f = opt_.faults[i];
    PLS_CHECK_MSG(f.gate < lps.size(), "fault " << i << " names gate "
                                                << f.gate
                                                << " outside the circuit");
    LpRecord& r = lps[f.gate];
    if (r.stuck == kNoStuck) {
      r.stuck = static_cast<std::uint32_t>(model_.stuck_.size());
      model_.stuck_.resize(model_.stuck_.size() + 2 * K, 0);
    }
    const std::size_t lane = i + 1;
    const std::uint64_t bit = std::uint64_t{1} << (lane % 64);
    model_.stuck_[r.stuck + lane / 64] |= bit;
    if (f.stuck_value) model_.stuck_[r.stuck + K + lane / 64] |= bit;
  }

  // Drifting stimulus: the first half of the primary inputs by ordinal is
  // hot before stim_drift_at, the second after.
  std::size_t num_inputs = 0;
  for (const LpRecord& r : lps) num_inputs += r.kind == LpKind::kInput;
  std::size_t ordinal = 0;
  for (LpRecord& r : lps) {
    if (r.kind != LpKind::kInput) continue;
    r.hot_first = ordinal++ < (num_inputs + 1) / 2;
  }
  return std::move(model_);
}

// ---------------------------------------------------------------------------
// NetlistLp
// ---------------------------------------------------------------------------

warped::LpState NetlistLp::initial_state() const {
  LpState s;
  s.w.assign(model_.lp(id_).w_size, 0);
  return s;
}

void NetlistLp::init(Context& ctx) {
  if (model_.lp(id_).kind != LpKind::kDff) {
    // A gate evaluates at power-on, so gates whose zero-input evaluation is
    // 1 (NAND, NOR, NOT, XNOR) announce it instead of leaving downstream
    // logic to assume 0 forever; an input applies vector 0.
    ctx.schedule_self(0);
    return;
  }
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
  if (model_.clock_phase() <= ctx.end_time()) {
    ctx.schedule_self(model_.clock_phase());
  }
}

void NetlistLp::execute(Context& ctx, EventBatch batch) {
  const LpRecord& r = model_.lp(id_);
  switch (r.kind) {
    case LpKind::kGate: execute_gate(model_, r, ctx, batch); break;
    case LpKind::kDff: execute_dff(model_, r, ctx, batch); break;
    case LpKind::kInput: execute_input(model_, r, id_, ctx, batch); break;
  }
}

bool vector_bit(std::uint64_t seed, warped::LpId lp, std::uint64_t n) noexcept {
  util::SplitMix64 h(seed ^ (0x9e3779b97f4a7c15ULL * (lp + 1)) ^
                     (n * 0xbf58476d1ce4e5b9ULL));
  return (h.next() & 1) != 0;
}

std::uint64_t vector_word(std::uint64_t seed, warped::LpId lp, std::uint64_t n,
                          std::uint32_t lanes, bool uniform,
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

// ---------------------------------------------------------------------------
// Elaboration
// ---------------------------------------------------------------------------

SimModel build_model(const circuit::Circuit& c, const ModelOptions& opt) {
  PLS_CHECK_MSG(c.frozen(), "build_model requires a frozen circuit");
  FlatModelBuilder builder(opt);
  // Each fanout of g becomes a port: the pin g occupies at the target.
  // c.fanouts(g) lists targets ascending, once per pin, so a driver
  // feeding one target on several pins takes its pins in ascending order.
  std::vector<FanoutPort> ports;
  for (circuit::GateId g = 0; g < c.size(); ++g) {
    ports.clear();
    for (const circuit::GateId t : c.fanouts(g)) {
      const auto fins = c.fanins(t);
      std::uint32_t pin = !ports.empty() && ports.back().target == t
                              ? ports.back().port + 1
                              : 0;
      while (fins[pin] != g) ++pin;
      ports.push_back(FanoutPort{static_cast<warped::LpId>(t), pin});
    }
    builder.add(c.type(g), static_cast<std::uint32_t>(c.fanins(g).size()),
                ports, c.is_output(g));
  }

  SimModel model;
  model.flat = std::make_unique<const FlatModel>(builder.finish());
  model.lps.reserve(c.size());
  for (circuit::GateId g = 0; g < c.size(); ++g) {
    model.lps.push_back(std::make_unique<NetlistLp>(*model.flat, g));
  }
  return model;
}

}  // namespace pls::logicsim
