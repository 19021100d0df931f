#pragma once
// Core Time Warp types: virtual time, logical process ids, events and LP
// state snapshots.
//
// This module reimplements the role of the WARPED kernel [18] the paper
// evaluated on: an optimistic parallel discrete-event simulator using the
// Time Warp mechanism (Jefferson [10]) with logical processes grouped into
// per-node clusters.

#include <array>
#include <bit>
#include <cstdint>
#include <tuple>
#include <vector>

#include "mem/words.hpp"

namespace pls::warped {

using SimTime = std::uint64_t;
inline constexpr SimTime kEndOfTime = ~SimTime{0};

/// Saturating virtual-time addition: clamps to kEndOfTime instead of
/// wrapping.  Window arithmetic (GVT + optimism window) must use this — a
/// wrapped sum collapses the execution window to a tiny value exactly when
/// GVT approaches end-of-time, blocking the final drain under throttling.
constexpr SimTime saturating_add(SimTime a, SimTime b) noexcept {
  return a > kEndOfTime - b ? kEndOfTime : a + b;
}

using LpId = std::uint32_t;
inline constexpr LpId kInvalidLp = ~LpId{0};

/// Special port number for self-scheduled "tick" events (clock edges,
/// stimulus vectors, power-on evaluation).
inline constexpr std::uint32_t kTickPort = ~std::uint32_t{0};

enum class Sign : std::uint8_t { kPositive, kNegative };

/// A Time Warp message.  A negative event (anti-message) is the exact twin
/// of the positive event it cancels: same sender, same id.
///
/// Batched stimulus (bit-parallel evaluation, up to 256 lanes): the
/// payload is K words of `value` (one signal bit per lane) plus K words of
/// `mask` flagging the lanes whose value actually changed — a receiver
/// applies `value` only under `mask`, so one event serves up to 64·K
/// correlated scenarios.  Word 0 of each lives inline in `value`/`mask`;
/// words 1..K-1 ride in `xt`, a width-parameterized extension drawn from
/// the node-local arena (mem/pool.hpp), laid out as
/// [value_1..value_{K-1}, mask_1..mask_{K-1}].  K = 1 leaves `xt` empty —
/// runs of up to 64 lanes never allocate.  Senders emit an event only
/// when some mask word is non-zero.  The kernel itself never interprets
/// the payload: an anti-message cancels the whole event (all lanes at
/// once), state saving snapshots full words, and rollback/annihilation
/// match on (sender, id) whatever the width.  A one-lane event carries
/// value bit 0 and mask = 1, so it weighs one lane-transition in the
/// committed-send accounting.
struct Event {
  SimTime recv_time = 0;
  SimTime send_time = 0;
  LpId target = kInvalidLp;
  LpId sender = kInvalidLp;
  std::uint32_t port = 0;     ///< receiver input port (kTickPort = tick)
  Sign sign = Sign::kPositive;
  std::uint64_t value = 0;    ///< payload word 0 (one signal bit per lane)
  std::uint64_t mask = 1;     ///< changed lanes, word 0 (one lane: bit 0)
  std::uint64_t id = 0;       ///< unique per sender; survives rollbacks
  mem::Words xt;              ///< words 1..K-1 of value, then of mask

  /// Payload width K in 64-lane words (>= 1).
  std::uint32_t payload_words() const noexcept { return 1 + xt.size() / 2; }
  /// Grow the payload to K words (new words zero); K = 1 is a no-op.
  void widen(std::uint32_t k) {
    if (k > 1) xt.assign(2 * (k - 1), 0);
  }
  std::uint64_t value_word(std::uint32_t w) const noexcept {
    return w == 0 ? value : xt[w - 1];
  }
  std::uint64_t mask_word(std::uint32_t w) const noexcept {
    return w == 0 ? mask : xt[xt.size() / 2 + (w - 1)];
  }
  void set_value_word(std::uint32_t w, std::uint64_t v) noexcept {
    if (w == 0) value = v; else xt[w - 1] = v;
  }
  void set_mask_word(std::uint32_t w, std::uint64_t v) noexcept {
    if (w == 0) mask = v; else xt[xt.size() / 2 + (w - 1)] = v;
  }
  /// Lane transitions this event carries: popcount over all mask words.
  std::uint64_t mask_popcount() const noexcept {
    std::uint64_t n = static_cast<std::uint64_t>(std::popcount(mask));
    const std::uint32_t half = xt.size() / 2;
    for (std::uint32_t w = half; w < xt.size(); ++w) {
      n += static_cast<std::uint64_t>(std::popcount(xt[w]));
    }
    return n;
  }

  /// Queue ordering: receive time first, then a deterministic tie-break so
  /// queue layout is identical across runs and node counts.
  friend bool operator<(const Event& a, const Event& b) noexcept {
    return std::tie(a.recv_time, a.sender, a.port, a.id) <
           std::tie(b.recv_time, b.sender, b.port, b.id);
  }
  /// Anti-message matching identity.
  bool matches(const Event& other) const noexcept {
    return sender == other.sender && id == other.id;
  }
};

/// LP state: two fixed words plus an optional wide extension.  One-lane
/// logic LPs pack their input bits into `a` and the output value into `b`
/// and leave `w` empty, so copy state saving stays a trivial 32-byte copy
/// — the classic Time Warp copy-state discipline at negligible cost.
/// Wider runs need one full value word per (fanin, lane word), which
/// cannot fit the packed-bit scheme; they keep those lane words in `w`
/// (see src/logicsim/netlist_lps.hpp for the per-behaviour layouts) with
/// the word-0 output lane word in `b`.  `w` is arena-pooled
/// (mem/words.hpp): snapshot copies recycle fixed-size blocks from the
/// node-local pool instead of hitting the heap, and fossil collection
/// reclaims whole runs of them per sweep.  Snapshots copy the whole struct
/// either way, so rollback restores full words per lane.
struct LpState {
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  mem::Words w;  ///< wide lane words (runs of 2+ lanes), arena-pooled

  friend bool operator==(const LpState&, const LpState&) noexcept = default;
};

/// State snapshot taken after processing the batch at `time`.
struct Snapshot {
  SimTime time = 0;
  LpState state;
};

}  // namespace pls::warped
