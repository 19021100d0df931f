#pragma once
// Gate-level logical processes: the TYVIS role of the reproduction.
//
// Every gate of the circuit becomes exactly one Time Warp LP whose id
// equals its GateId, so a Partition maps 1:1 onto the kernel's LP→node
// map.  Three behaviours exist, each evaluating up to kMaxLanes
// bit-parallel stimulus lanes at once (one value bit per lane; lanes.hpp):
//
//   * BatchGateLp  — combinational gates: input events update the fanin
//     lanes; when the evaluated output changes on any lane, a transition
//     is sent to every fanout port after the gate delay.
//   * BatchDffLp   — D flip-flops, self-clocked with a configurable period
//     (src/logicsim/README.md, "Clock suppression"): a tick samples D and
//     emits Q on change.
//   * BatchInputLp — primary inputs: self-scheduled stimulus that applies a
//     new random vector every `stim_period`.  Vector values are a
//     counter-based hash of (seed, input, vector index), which makes the
//     stimulus history-independent — a rollback replays identical values.
//
// Determinism: execute() is a pure function of (state, batch content).
// Batches apply data-port events before tick events, so a D arriving on
// the clock edge is captured — a fixed, documented race resolution.

#include <cstdint>
#include <memory>
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

/// The elaborated simulation model: one behaviour per gate, index = GateId.
struct SimModel {
  std::vector<std::unique_ptr<warped::LogicalProcess>> lps;
  ModelOptions options;

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

// ---- behaviours (exposed for unit tests) ----------------------------------
//
// State keeps K = lane_words(lanes) lane words per signal, events carry K
// value words plus K change-mask words, and an event fires only when at
// least one lane changed.  Unchanged lanes are never perturbed (masked
// application), so lane j's committed trajectory is exactly its one-lane
// twin's — the lane-equivalence contract lanes.hpp documents and
// tests/batch_equivalence_property_test.cpp enforces.  Word 0 of every
// signal lives in an inline LpState slot; words 1..K-1 extend into
// LpState::w (layouts below).  A one-lane run keeps `w` empty: its gates
// pack fanin p into bit p of `a`, and its flip-flops keep no armed-lanes
// word.
//
// All three support stuck-at injection at their output (sa_mask / sa_value
// lane words, one entry per value word, stored only on faulted LPs) and,
// on observing gates (primary outputs in fault mode, lanes >= 2), a
// monotone divergence accumulator against fault-free lane 0.

/// Lane 0 of a state's output: the gate output, Q or the stimulus value,
/// which every layout keeps in bit 0 of `b`.
inline bool output_bit(const warped::LpState& s) noexcept {
  return (s.b & 1) != 0;
}

class BatchGateLp final : public warped::LogicalProcess {
 public:
  /// State layout (K = lane_words(lanes)): w[wd*arity + p] = word wd of
  /// fanin p (word-major, so eval_gate_word reads one contiguous run per
  /// word); b = output word 0, w[arity*K + wd-1] = output words 1..K-1;
  /// a = divergence word 0, w[arity*K + K-1 + wd-1] = divergence words
  /// 1..K-1 (observing gates only).  One lane: a = fanin p in bit p,
  /// evaluated with eval_gate; b = output; w empty.
  BatchGateLp(circuit::GateType type, std::uint32_t arity,
              std::vector<FanoutPort> fanouts, std::uint32_t lanes,
              std::vector<std::uint64_t> sa_mask = {},
              std::vector<std::uint64_t> sa_value = {}, bool observe = false);

  warped::LpState initial_state() const override;
  void init(warped::Context& ctx) override;
  void execute(warped::Context& ctx, warped::EventBatch batch) override;

  // Elaborated parameters, read by the sequential reference's compiler.
  const std::vector<FanoutPort>& fanouts() const noexcept { return fanouts_; }
  circuit::GateType type() const noexcept { return type_; }
  std::uint32_t arity() const noexcept { return arity_; }
  std::uint32_t lanes() const noexcept { return lanes_; }
  bool observes() const noexcept { return observe_; }
  /// K stuck-at mask words, then K value words; null unless faulted.
  const std::uint64_t* stuck_words() const noexcept { return stuck_.get(); }

 private:
  // 48 bytes: the most numerous LP fits one 64-byte heap chunk.
  std::vector<FanoutPort> fanouts_;
  circuit::GateType type_;
  bool observe_;
  std::uint16_t lanes_;
  std::uint32_t arity_;
  std::unique_ptr<std::uint64_t[]> stuck_;  ///< null unless faulted
};

class BatchDffLp final : public warped::LogicalProcess {
 public:
  /// State layout (K = lane_words(lanes)): a = latched D word 0, b = Q
  /// word 0; w[0..K) = lanes armed for the next sampling edge (per-lane
  /// clock suppression); w[K + wd-1] = D words 1..K-1; w[2K-1 + wd-1] =
  /// Q words 1..K-1; w[3K-2 + wd] = divergence words 0..K-1 (observing
  /// DFFs only).  One lane: a = D, b = Q, w empty — a single lane is only
  /// ever ticked at the init edge or at an edge it armed itself, so every
  /// tick samples it.
  BatchDffLp(std::vector<FanoutPort> fanouts, warped::SimTime period,
             warped::SimTime phase, std::uint32_t lanes,
             std::vector<std::uint64_t> sa_mask = {},
             std::vector<std::uint64_t> sa_value = {}, bool observe = false);

  warped::LpState initial_state() const override;
  void init(warped::Context& ctx) override;
  void execute(warped::Context& ctx, warped::EventBatch batch) override;

  /// First clock edge at or after t (edges at phase + n·period).
  warped::SimTime next_edge_at_or_after(warped::SimTime t) const;

  // Elaborated parameters, read by the sequential reference's compiler.
  const std::vector<FanoutPort>& fanouts() const noexcept { return fanouts_; }
  warped::SimTime period() const noexcept { return period_; }
  warped::SimTime phase() const noexcept { return phase_; }
  std::uint32_t lanes() const noexcept { return lanes_; }
  bool observes() const noexcept { return observe_; }
  /// K stuck-at mask words, then K value words; null unless faulted.
  const std::uint64_t* stuck_words() const noexcept { return stuck_.get(); }

 private:
  std::vector<FanoutPort> fanouts_;
  warped::SimTime period_;
  warped::SimTime phase_;
  std::uint32_t lanes_;
  bool observe_;
  std::unique_ptr<std::uint64_t[]> stuck_;  ///< null unless faulted
};

class BatchInputLp final : public warped::LogicalProcess {
 public:
  /// State layout (K = lane_words(lanes)): b = stimulus word 0,
  /// w[wd-1] = words 1..K-1; a = divergence word 0, w[K-1 + wd-1] =
  /// divergence words 1..K-1 (observing inputs only).  With
  /// `uniform_stimulus` every lane draws from the base seed (fault-sim
  /// mode); otherwise lane j draws from lane_seed(seed, j).  `drift_at` /
  /// `hot_first` implement ModelOptions::stim_drift_at: with drift_at != 0
  /// the input applies fresh vectors only during its hot phase (before
  /// drift_at when hot_first, after it otherwise) and holds a frozen
  /// vector index during the cold phase.
  BatchInputLp(std::vector<FanoutPort> fanouts, warped::SimTime period,
               std::uint64_t seed, std::uint32_t lanes,
               bool uniform_stimulus = false,
               warped::SimTime drift_at = 0, bool hot_first = true,
               std::vector<std::uint64_t> sa_mask = {},
               std::vector<std::uint64_t> sa_value = {}, bool observe = false);

  warped::LpState initial_state() const override;
  void init(warped::Context& ctx) override;
  void execute(warped::Context& ctx, warped::EventBatch batch) override;

  /// The stimulus bit input `lp` applies for vector index `n` under `seed`
  /// — pure counter-based hash, identical across rollbacks and node counts.
  static bool vector_bit(std::uint64_t seed, warped::LpId lp,
                         std::uint64_t n) noexcept;

  /// Packed stimulus word `word` (lanes [64·word, 64·word+64)) for vector
  /// index `n` — per-lane vector_bit hashes.
  static std::uint64_t vector_word(std::uint64_t seed, warped::LpId lp,
                                   std::uint64_t n, std::uint32_t lanes,
                                   bool uniform,
                                   std::uint32_t word = 0) noexcept;

  // Elaborated parameters, read by the sequential reference's compiler.
  const std::vector<FanoutPort>& fanouts() const noexcept { return fanouts_; }
  warped::SimTime period() const noexcept { return period_; }
  std::uint64_t seed() const noexcept { return seed_; }
  warped::SimTime drift_at() const noexcept { return drift_at_; }
  bool hot_first() const noexcept { return hot_first_; }
  std::uint32_t lanes() const noexcept { return lanes_; }
  bool uniform() const noexcept { return uniform_; }
  bool observes() const noexcept { return observe_; }
  /// K stuck-at mask words, then K value words; null unless faulted.
  const std::uint64_t* stuck_words() const noexcept { return stuck_.get(); }

 private:
  std::vector<FanoutPort> fanouts_;
  warped::SimTime period_;
  std::uint64_t seed_;
  warped::SimTime drift_at_;
  std::uint32_t lanes_;
  bool uniform_;
  bool hot_first_;
  bool observe_;
  std::unique_ptr<std::uint64_t[]> stuck_;  ///< null unless faulted
};

}  // namespace pls::logicsim
