// Tests for levelization and cone analysis.

#include <gtest/gtest.h>

#include "circuit/cones.hpp"
#include "circuit/generator.hpp"
#include "circuit/levelize.hpp"

namespace pls::circuit {
namespace {

Circuit chain_circuit(int depth) {
  // a -> n0 -> n1 -> ... -> n(depth-1)
  Circuit c("chain");
  GateId prev = c.add_input("a");
  for (int i = 0; i < depth; ++i) {
    prev = c.add_gate("n" + std::to_string(i), GateType::kBuf, {prev});
  }
  c.mark_output(prev);
  c.freeze();
  return c;
}

TEST(Levelize, ChainLevelsAreSequential) {
  const Circuit c = chain_circuit(5);
  const auto lv = levelize(c);
  EXPECT_EQ(lv.max_level, 5u);
  EXPECT_EQ(lv.level[c.find("a")], 0u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(lv.level[c.find("n" + std::to_string(i))],
              static_cast<std::uint32_t>(i + 1));
  }
  ASSERT_EQ(lv.by_level.size(), 6u);
  for (const auto& level : lv.by_level) EXPECT_EQ(level.size(), 1u);
}

TEST(Levelize, LongestPathWins) {
  // a -> g1 -> g2 ; g3 = AND(a, g2): level(g3) = 3 via the longer path.
  Circuit c;
  const GateId a = c.add_input("a");
  const GateId g1 = c.add_gate("g1", GateType::kBuf, {a});
  const GateId g2 = c.add_gate("g2", GateType::kNot, {g1});
  const GateId g3 = c.add_gate("g3", GateType::kAnd, {a, g2});
  c.freeze();
  const auto lv = levelize(c);
  EXPECT_EQ(lv.level[g3], 3u);
  EXPECT_EQ(lv.max_level, 3u);
}

TEST(Levelize, DffIsLevelZeroSource) {
  Circuit c;
  const GateId a = c.add_input("a");
  const GateId ff = c.add_gate("ff", GateType::kDff);
  const GateId g = c.add_gate("g", GateType::kAnd, {a, ff});
  c.connect(ff, g);  // feedback
  c.freeze();
  const auto lv = levelize(c);
  EXPECT_EQ(lv.level[ff], 0u);
  EXPECT_EQ(lv.level[g], 1u);
}

TEST(Levelize, EveryGateBelowFanoutUnlessDff) {
  const Circuit c = make_iscas_like("s5378", 5);
  const auto lv = levelize(c);
  for (GateId g = 0; g < c.size(); ++g) {
    for (GateId out : c.fanouts(g)) {
      if (c.type(out) == GateType::kDff) continue;
      EXPECT_LT(lv.level[g], lv.level[out]);
    }
  }
}

TEST(TopologicalOrder, IsValidOverCombinationalEdges) {
  const Circuit c = make_iscas_like("s5378", 5);
  const auto order = topological_order(c);
  ASSERT_EQ(order.size(), c.size());
  std::vector<std::size_t> pos(c.size());
  for (std::size_t i = 0; i < order.size(); ++i) pos[order[i]] = i;
  for (GateId g = 0; g < c.size(); ++g) {
    if (c.type(g) == GateType::kDff) continue;
    for (GateId f : c.fanins(g)) {
      EXPECT_LT(pos[f], pos[g]);
    }
  }
}

TEST(Cones, ChainConeIsSuffix) {
  const Circuit c = chain_circuit(4);
  const auto cone = fanout_cone(c, c.find("n1"));
  EXPECT_EQ(cone.size(), 3u);  // n1, n2, n3
}

TEST(Cones, StopsAtDffUnlessRequested) {
  // a -> g -> ff -> h : cone(a) without DFF traversal stops at ff.
  Circuit c;
  const GateId a = c.add_input("a");
  const GateId g = c.add_gate("g", GateType::kBuf, {a});
  const GateId ff = c.add_gate("ff", GateType::kDff, {g});
  c.add_gate("h", GateType::kNot, {ff});
  c.freeze();
  EXPECT_EQ(fanout_cone(c, a, false).size(), 3u);  // a, g, ff
  EXPECT_EQ(fanout_cone(c, a, true).size(), 4u);   // ... and h
}

TEST(Cones, DffRootStillExpands) {
  Circuit c;
  c.add_input("a");
  const GateId ff = c.add_gate("ff", GateType::kDff);
  const GateId g = c.add_gate("g", GateType::kNot, {ff});
  c.connect(ff, g);
  c.freeze();
  const auto cone = fanout_cone(c, ff, false);
  EXPECT_EQ(cone.size(), 2u);  // ff, g
}

TEST(Cones, ConeContainsNoDuplicates) {
  const Circuit c = make_iscas_like("s5378", 7);
  auto cone = fanout_cone(c, c.primary_inputs()[0], true);
  const std::size_t n = cone.size();
  std::sort(cone.begin(), cone.end());
  cone.erase(std::unique(cone.begin(), cone.end()), cone.end());
  EXPECT_EQ(cone.size(), n);
}

}  // namespace
}  // namespace pls::circuit
