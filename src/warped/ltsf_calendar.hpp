#pragma once
// LtsfCalendar: a node's lowest-timestamp-first scheduler queue of
// (time, LP) entries, kept as a time-bucket calendar.
//
// Entries due at the cursor tick or in the 63 ticks after it sit in 64
// slots of LP ids indexed by time mod 64, so a slot implies its entries'
// time.  Later ticks wait in an overflow min-heap and move into the slots
// as the cursor comes within reach of them.  Entries pushed below the
// cursor (stragglers, rollback re-pushes) go to an early min-heap, which
// is served before any slot.  The earliest time is therefore exact across
// ticks; entries that share one tick pop in LIFO order, which committed
// results cannot depend on (an LP's events at one tick form one batch, and
// what a batch sends arrives strictly later).  The cursor only moves
// forward, and only over empty slots.  While the work stays inside the
// window, push and pop are O(1) instead of a heap's O(log n).
//
// The calendar holds entries, not liveness: the kernel's per-LP marks
// decide which entries still stand for an LP's next batch (kernel.cpp).

#include <algorithm>
#include <array>
#include <cstddef>
#include <vector>

#include "warped/types.hpp"

namespace pls::warped {

class LtsfCalendar {
 public:
  struct Entry {
    SimTime time = 0;
    LpId lp = kInvalidLp;
  };

  bool empty() const noexcept {
    return early_.empty() && in_slots_ == 0 && later_.empty();
  }

  /// Adds an entry; `t` must be below kEndOfTime.
  void push(SimTime t, LpId lp) {
    if (t < cursor_) {
      early_.push_back(Entry{t, lp});
      std::push_heap(early_.begin(), early_.end(), due_later);
    } else if (t - cursor_ < kSlots) {
      slots_[t % kSlots].push_back(lp);
      ++in_slots_;
    } else {
      later_.push_back(Entry{t, lp});
      std::push_heap(later_.begin(), later_.end(), due_later);
    }
  }

  /// An entry of the earliest time; requires !empty().  Moves the cursor
  /// up to that time when no entry lies below the cursor.
  Entry top() {
    if (!early_.empty()) return early_.front();
    const LpId lp = settle().back();  // may move the cursor
    return Entry{cursor_, lp};
  }

  /// Removes the entry the last top() returned; nothing may be pushed in
  /// between.
  void pop() {
    if (!early_.empty()) {
      std::pop_heap(early_.begin(), early_.end(), due_later);
      early_.pop_back();
      return;
    }
    slots_[cursor_ % kSlots].pop_back();
    --in_slots_;
  }

  /// Calls f(Entry) for every entry, in no particular order.
  template <typename F>
  void for_each(F&& f) const {
    for (const Entry& e : early_) f(e);
    for (SimTime d = 0; d < kSlots; ++d) {
      // Only a non-empty slot's time is meaningful: every slotted entry
      // lies in [cursor, cursor + 64), below kEndOfTime.
      const SimTime t = cursor_ + d;
      for (const LpId lp : slots_[t % kSlots]) f(Entry{t, lp});
    }
    for (const Entry& e : later_) f(e);
  }

 private:
  static constexpr SimTime kSlots = 64;

  static bool due_later(const Entry& a, const Entry& b) noexcept {
    return a.time > b.time;
  }

  /// With no early entry: moves the cursor to the earliest tick that holds
  /// a slotted or overflow entry, pulls the overflow entries now within
  /// the window into their slots, and returns the cursor's slot.
  std::vector<LpId>& settle() {
    if (!slots_[cursor_ % kSlots].empty()) return slots_[cursor_ % kSlots];
    if (in_slots_ > 0) {
      // Every overflow entry is due at least 64 ticks past the old cursor,
      // so the next non-empty slot is the earliest entry.
      do {
        ++cursor_;
      } while (slots_[cursor_ % kSlots].empty());
    } else {
      cursor_ = later_.front().time;  // skip a gap with no entries
    }
    while (!later_.empty() && later_.front().time - cursor_ < kSlots) {
      std::pop_heap(later_.begin(), later_.end(), due_later);
      slots_[later_.back().time % kSlots].push_back(later_.back().lp);
      later_.pop_back();
      ++in_slots_;
    }
    return slots_[cursor_ % kSlots];
  }

  std::vector<Entry> early_;  ///< min-heap of entries below the cursor
  std::array<std::vector<LpId>, kSlots> slots_;
  std::size_t in_slots_ = 0;
  std::vector<Entry> later_;  ///< min-heap of entries past the window
  SimTime cursor_ = 0;
};

}  // namespace pls::warped
