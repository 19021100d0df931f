// Differential tests of LtsfCalendar, the node loop's LTSF scheduler
// queue, against a std::multiset model: every pushed entry pops exactly
// once, each pop is an entry of the model's earliest time, pops between
// pushes come in nondecreasing time, and for_each visits exactly the
// entries the model holds.

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <set>
#include <utility>

#include "util/rng.hpp"
#include "warped/ltsf_calendar.hpp"

namespace pls::warped {
namespace {

using Model = std::multiset<std::pair<SimTime, LpId>>;

Model contents(const LtsfCalendar& cal) {
  Model m;
  cal.for_each(
      [&](const LtsfCalendar::Entry& e) { m.emplace(e.time, e.lp); });
  return m;
}

/// Pops the calendar's top, checks it against the model's earliest time
/// and removes it from the model; returns the popped time.
SimTime pop_checked(LtsfCalendar& cal, Model& model) {
  const LtsfCalendar::Entry e = cal.top();
  cal.pop();
  EXPECT_EQ(e.time, model.begin()->first);
  const auto it = model.find({e.time, e.lp});
  EXPECT_NE(it, model.end()) << "popped (" << e.time << ", " << e.lp
                             << ") was never pushed or popped twice";
  if (it != model.end()) model.erase(it);
  return e.time;
}

TEST(LtsfCalendar, JumpsGapsAndServesStragglersFirst) {
  LtsfCalendar cal;
  EXPECT_TRUE(cal.empty());
  cal.push(5, 1);
  EXPECT_EQ(cal.top().time, 5u);
  cal.pop();
  EXPECT_TRUE(cal.empty());
  // Past the window of the cursor at 5: the cursor must jump the gap.
  cal.push(1064, 4);
  cal.push(1000, 2);
  cal.push(1063, 3);
  EXPECT_EQ(cal.top().time, 1000u);
  EXPECT_EQ(cal.top().lp, 2u);
  cal.pop();
  // Below the cursor (now 1000): served before anything in the slots.
  cal.push(10, 5);
  cal.push(7, 6);
  EXPECT_EQ(cal.top().time, 7u);
  cal.pop();
  EXPECT_EQ(cal.top().time, 10u);
  cal.pop();
  EXPECT_EQ(cal.top().time, 1063u);
  cal.pop();
  EXPECT_EQ(cal.top().time, 1064u);
  EXPECT_EQ(cal.top().lp, 4u);
  cal.pop();
  EXPECT_TRUE(cal.empty());
}

TEST(LtsfCalendar, MatchesMultisetModelUnderRandomTraffic) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4242u}) {
    SCOPED_TRACE(seed);
    util::Rng rng(seed);
    LtsfCalendar cal;
    Model model;
    SimTime frontier = 0;  // latest time popped: the calendar's cursor
    std::uint64_t pushed = 0;
    std::uint64_t popped = 0;
    auto push = [&](SimTime t, LpId lp) {
      cal.push(t, lp);
      model.emplace(t, lp);
      ++pushed;
    };
    for (int round = 0; round < 600; ++round) {
      const std::uint64_t pushes = 1 + rng.below(8);
      for (std::uint64_t i = 0; i < pushes; ++i) {
        const auto lp = static_cast<LpId>(rng.below(50));
        switch (rng.below(7)) {
          case 0:  // at the cursor
            push(frontier, lp);
            break;
          case 1:  // inside the 64-slot window
          case 2:
            push(frontier + 1 + rng.below(63), lp);
            break;
          case 3:  // past the window: overflow
            push(frontier + 64 + rng.below(400), lp);
            break;
          case 4:  // far past it: a gap the cursor must jump once drained
            push(frontier + 1000 + rng.below(5000), lp);
            break;
          case 5: {  // before the cursor: a straggler or rollback
                     // re-push, half the time just below it
            const SimTime back =
                rng.below(2) == 0 ? 1 + rng.below(3) : rng.below(frontier + 1);
            push(frontier - std::min(frontier, back), lp);
            break;
          }
          default:  // an exact duplicate of a held entry
            if (!model.empty()) {
              const auto it = std::next(
                  model.begin(),
                  static_cast<std::ptrdiff_t>(rng.below(model.size())));
              push(it->first, it->second);
            }
        }
      }
      if (round % 16 == 0) {
        ASSERT_EQ(contents(cal), model);
      }
      // Pop a few; without pushes in between, times never decrease.
      SimTime last = 0;
      for (std::uint64_t n = rng.below(10); n > 0 && !cal.empty(); --n) {
        const SimTime t = pop_checked(cal, model);
        EXPECT_GE(t, last);
        last = t;
        frontier = std::max(frontier, t);
        ++popped;
      }
      ASSERT_EQ(cal.empty(), model.empty());
    }
    ASSERT_EQ(contents(cal), model);
    SimTime last = 0;
    while (!cal.empty()) {
      const SimTime t = pop_checked(cal, model);
      EXPECT_GE(t, last);
      last = t;
      ++popped;
    }
    EXPECT_TRUE(model.empty());
    EXPECT_EQ(popped, pushed);
  }
}

}  // namespace
}  // namespace pls::warped
