#pragma once
// Gate-level logical processes: the TYVIS role of the reproduction.
//
// build_model elaborates a frozen circuit once into a read-only FlatModel:
// one LpRecord per gate, the CSR fanout ports, the stuck-at words of
// faulted gates, and the lane count and timing every LP shares.  Every gate
// then becomes exactly one Time Warp LP, a NetlistLp {model, id} whose id
// equals its GateId, so a Partition maps 1:1 onto the kernel's LP→node map.
// A NetlistLp holds no parameters of its own: it reads its record and
// dispatches on its kind, each kind evaluating up to kMaxLanes bit-parallel
// stimulus lanes at once (one value bit per lane; lanes.hpp):
//
//   * gate      — combinational: input events update the fanin lanes; when
//     the evaluated output changes on any lane, a transition is sent to
//     every fanout port after the gate delay.
//   * flip-flop — D flip-flop, self-clocked with a configurable period
//     (src/logicsim/README.md, "Clock suppression"): a tick samples D and
//     emits Q on change.
//   * input     — primary input: self-scheduled stimulus that applies a new
//     random vector every `stim_period`.  Vector values are a
//     counter-based hash of (seed, input, vector index), which makes the
//     stimulus history-independent — a rollback replays identical values.
//
// The sequential reference (sequential.hpp) steps the same FlatModel with
// an engine of its own: the model is the one elaboration both read.
//
// Determinism: execute() is a pure function of (state, batch content).
// Batches apply data-port events before tick events, so a D arriving on
// the clock edge is captured — a fixed, documented race resolution.

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "circuit/circuit.hpp"
#include "logicsim/lanes.hpp"
#include "warped/lp.hpp"

namespace pls::logicsim {

struct ModelOptions {
  /// Fixed combinational propagation delay (inputs use it too) and
  /// clock-to-Q delay; the flat sequential engine steps unit delays.
  static constexpr warped::SimTime gate_delay = 1;
  static constexpr warped::SimTime dff_delay = 1;
  warped::SimTime clock_period = 10;
  warped::SimTime clock_phase = 5;  ///< first tick (0 < phase recommended)
  warped::SimTime stim_period = 20; ///< new input vector interval
  std::uint64_t stim_seed = 7;      ///< stimulus stream seed

  /// Drifting stimulus (a workload whose activity moves mid-run): when
  /// non-zero, the first half of the primary inputs (by ordinal) drives
  /// fresh vectors only *before* this virtual time and then freezes, while
  /// the second half freezes first and comes alive *at* this time — the
  /// hot region of the circuit shifts mid-run.  The live/frozen choice is
  /// a pure function of virtual time, so the stimulus stays
  /// history-independent (rollback- and node-count-invariant).  0 = off.
  warped::SimTime stim_drift_at = 0;

  /// Bit-parallel stimulus lanes in [1, kMaxLanes]: every net carries one
  /// value bit per lane, and lane j replays the one-lane run with seed
  /// lane_seed(stim_seed, j) — see lanes.hpp for the contract.  Counts
  /// above 64 span lane_words(lanes) value words per signal; word 0 stays
  /// in the inline Event/LpState slots and the tail words ride the
  /// arena-pooled extensions.  One lane keeps every state inline (the
  /// one-lane layouts below), so it never touches the pool.
  std::uint32_t lanes = 1;

  /// Fault simulation (lanes >= 2 only): fault i is injected on lane
  /// i + 1, lane 0 stays fault-free, and primary outputs accumulate the
  /// lanes that ever diverged from lane 0 (lanes.hpp detected_faults).
  std::vector<StuckAtFault> faults;

  /// Drive every lane with the *same* stimulus stream (the base seed)
  /// instead of per-lane seeds.  This is what fault simulation wants:
  /// lanes then differ only through their injected faults.
  bool uniform_stimulus = false;
};

/// One fanout connection: the driven LP and the input port (fanin index)
/// this signal occupies there.
struct FanoutPort {
  warped::LpId target;
  std::uint32_t port;
};

enum class LpKind : std::uint8_t { kGate, kDff, kInput };

/// LpRecord::stuck of an LP without stuck-at words.
inline constexpr std::uint32_t kNoStuck = ~std::uint32_t{0};

/// One LP of a FlatModel as plain data.
struct LpRecord {
  std::uint32_t fan_begin = 0;  ///< fanout ports [fan_begin, fan_end)
  std::uint32_t fan_end = 0;
  std::uint32_t stuck = kNoStuck;  ///< offset of its 2K stuck-at words
  std::uint32_t w_size = 0;        ///< words of LpState::w (NetlistLp)
  LpKind kind = LpKind::kGate;
  circuit::GateType type = circuit::GateType::kBuf;
  std::uint8_t arity = 0;   ///< input pins: gate 1..64, flip-flop 1, input 0
  bool observe = false;     ///< accumulates divergence from lane 0
  bool hot_first = true;    ///< input: drives vectors before stim_drift_at
};

/// The elaborated netlist, compiled once into flat read-only arrays: one
/// LpRecord per LP (index = LpId = GateId), CSR fanout ports, the stuck-at
/// words of faulted LPs, and the lane count and timing every LP shares.
/// FlatModelBuilder makes it; the behaviours and the sequential reference
/// only read it, so node threads share one without locks.
class FlatModel {
 public:
  std::size_t size() const noexcept { return lps_.size(); }
  const LpRecord& lp(warped::LpId id) const noexcept { return lps_[id]; }
  /// Target ascending, then pin ascending: the order sends go out in,
  /// which fixes event ids.
  std::span<const FanoutPort> fanouts(const LpRecord& r) const noexcept {
    return {ports_.data() + r.fan_begin, ports_.data() + r.fan_end};
  }
  /// K stuck-at mask words, then K value words, clipped to the active
  /// lanes; null unless `r` is faulted.
  const std::uint64_t* stuck_words(const LpRecord& r) const noexcept {
    return r.stuck == kNoStuck ? nullptr : stuck_.data() + r.stuck;
  }
  std::uint32_t lanes() const noexcept { return lanes_; }
  warped::SimTime clock_period() const noexcept { return clock_period_; }
  warped::SimTime clock_phase() const noexcept { return clock_phase_; }
  warped::SimTime stim_period() const noexcept { return stim_period_; }
  warped::SimTime stim_drift_at() const noexcept { return stim_drift_at_; }
  std::uint64_t stim_seed() const noexcept { return stim_seed_; }
  bool uniform_stimulus() const noexcept { return uniform_stimulus_; }

  /// First clock edge at or after t (edges at phase + n·period).
  warped::SimTime next_edge_at_or_after(warped::SimTime t) const noexcept;

 private:
  friend class FlatModelBuilder;
  std::vector<LpRecord> lps_;
  std::vector<FanoutPort> ports_;
  std::vector<std::uint64_t> stuck_;
  std::uint32_t lanes_ = 1;
  warped::SimTime clock_period_ = 0;
  warped::SimTime clock_phase_ = 0;
  warped::SimTime stim_period_ = 0;
  warped::SimTime stim_drift_at_ = 0;
  std::uint64_t stim_seed_ = 0;
  bool uniform_stimulus_ = false;
};

/// Builds a FlatModel LP by LP, in id order.  build_model drives it from a
/// circuit; it holds every elaboration rule: the state sizes, the stuck-at
/// words, the drift halves and which LPs observe.
class FlatModelBuilder {
 public:
  /// Checks the lane count, the faults against it, and the clock and
  /// stimulus periods.
  explicit FlatModelBuilder(const ModelOptions& opt);

  /// Appends the next LP (its id is the number added before it): a primary
  /// input, a flip-flop or a combinational gate by `type`, with `arity`
  /// input pins and these fanout ports.  A primary output observes lane
  /// divergence in fault mode.
  void add(circuit::GateType type, std::uint32_t arity,
           std::span<const FanoutPort> fanouts, bool primary_output = false);

  /// Injects the faults (fault i on lane i + 1), splits the inputs into
  /// drift halves by ordinal and hands over the model.
  FlatModel finish();

 private:
  ModelOptions opt_;
  FlatModel model_;
};

/// The behaviour of LP `id` of `model`, which must outlive it.  State
/// keeps K = lane_words(lanes) lane words per signal, events carry K value
/// words plus K change-mask words, and an event fires only when at least
/// one lane changed.  Unchanged lanes are never perturbed (masked
/// application), so lane j's committed trajectory is exactly its one-lane
/// twin's — the lane-equivalence contract lanes.hpp documents and
/// tests/batch_equivalence_property_test.cpp enforces.  Stuck-at words
/// force the output lanes of a faulted LP, and an observing LP accumulates
/// the lanes whose output diverged from fault-free lane 0.
///
/// State layouts (word 0 of every signal in an inline LpState slot, words
/// 1..K-1 in LpState::w; LpRecord::w_size counts w):
///   gate       w[wd*arity + p] = word wd of fanin p (word-major, so
///              eval_gate_word reads one contiguous run per word); b =
///              output word 0, w[arity*K + wd-1] = output words 1..K-1;
///              a = divergence word 0, w[arity*K + K-1 + wd-1] = divergence
///              words 1..K-1 (observing only).  One lane: a = fanin p in
///              bit p, evaluated with eval_gate; b = output; w empty.
///   flip-flop  a = latched D word 0, b = Q word 0; w[0..K) = lanes armed
///              for the next sampling edge (per-lane clock suppression);
///              w[K + wd-1] = D words 1..K-1; w[2K-1 + wd-1] = Q words
///              1..K-1; w[3K-2 + wd] = divergence words 0..K-1 (observing
///              only).  One lane: a = D, b = Q, w empty — a single lane is
///              only ever ticked at the init edge or at an edge it armed
///              itself, so every tick samples it.
///   input      b = stimulus word 0, w[wd-1] = words 1..K-1; a = divergence
///              word 0, w[K-1 + wd-1] = divergence words 1..K-1 (observing
///              only).  With uniform_stimulus every lane draws from the
///              base seed (fault-sim mode), otherwise lane j from
///              lane_seed(seed, j).  With stim_drift_at != 0 the input
///              applies fresh vectors only during its hot half (before
///              stim_drift_at when hot_first, after it otherwise) and holds
///              a frozen vector index during the cold half.
class NetlistLp final : public warped::LogicalProcess {
 public:
  NetlistLp(const FlatModel& model, warped::LpId id) noexcept
      : model_(model), id_(id) {}

  warped::LpState initial_state() const override;
  void init(warped::Context& ctx) override;
  void execute(warped::Context& ctx, warped::EventBatch batch) override;

  const FlatModel& model() const noexcept { return model_; }
  warped::LpId id() const noexcept { return id_; }

 private:
  const FlatModel& model_;
  warped::LpId id_;
};

/// The elaborated simulation model: the compiled netlist and one behaviour
/// per gate, index = GateId.
struct SimModel {
  /// On the heap, so it keeps its address when the SimModel moves: every
  /// behaviour points into it.
  std::unique_ptr<const FlatModel> flat;
  std::vector<std::unique_ptr<warped::LogicalProcess>> lps;

  std::vector<warped::LogicalProcess*> behaviours() const {
    std::vector<warped::LogicalProcess*> out;
    out.reserve(lps.size());
    for (const auto& lp : lps) out.push_back(lp.get());
    return out;
  }
};

/// Elaborate a frozen circuit into LPs (the runtime-elaboration step of the
/// paper's framework).
SimModel build_model(const circuit::Circuit& c, const ModelOptions& opt = {});

/// Lane 0 of a state's output: the gate output, Q or the stimulus value,
/// which every layout keeps in bit 0 of `b`.
inline bool output_bit(const warped::LpState& s) noexcept {
  return (s.b & 1) != 0;
}

/// The stimulus bit input `lp` applies for vector index `n` under `seed`
/// — pure counter-based hash, identical across rollbacks and node counts.
bool vector_bit(std::uint64_t seed, warped::LpId lp, std::uint64_t n) noexcept;

/// Packed stimulus word `word` (lanes [64·word, 64·word+64)) for vector
/// index `n` — per-lane vector_bit hashes, or the base seed's bit on every
/// active lane when `uniform`.
std::uint64_t vector_word(std::uint64_t seed, warped::LpId lp,
                          std::uint64_t n, std::uint32_t lanes, bool uniform,
                          std::uint32_t word = 0) noexcept;

}  // namespace pls::logicsim
