// Behaviour gates for the fixed calibration constants: the generator's
// gate mix and hub bias, the adaptive throttle's control-law constants,
// and the driver's activity pre-run horizon, weight caps, refinement
// budget and hypergraph rating pin limit.  Each case hashes an output
// those constants shape (FNV-1a) and compares it with a recorded value,
// so an edit of one cannot silently move a generated circuit, a throttle
// trajectory or an activity-guided partition.

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "circuit/generator.hpp"
#include "framework/driver.hpp"
#include "util/rng.hpp"
#include "warped/throttle.hpp"

namespace pls {
namespace {

class Fnv1a {
 public:
  void add(std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (x >> (8 * i)) & 0xffu;
      h_ *= 1099511628211ULL;
    }
  }
  void add(const circuit::Circuit& c) {
    add(c.size());
    for (circuit::GateId g = 0; g < c.size(); ++g) {
      add(static_cast<std::uint64_t>(c.type(g)));
      add(c.is_output(g) ? 1 : 0);
      const auto fi = c.fanins(g);
      add(fi.size());
      for (const circuit::GateId in : fi) add(in);
    }
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ULL;
};

::testing::AssertionResult HashIs(const Fnv1a& h, std::uint64_t expected) {
  if (h.value() == expected) return ::testing::AssertionSuccess();
  std::ostringstream msg;
  msg << std::hex << "hash 0x" << h.value() << " != recorded 0x" << expected;
  return ::testing::AssertionFailure() << msg.str();
}

TEST(GeneratorGolden, IscasLikeAndDefaultSpec) {
  struct Case {
    const char* circuit;
    std::uint64_t seed;
    std::uint64_t hash;
  };
  const Case cases[] = {
      {"s5378", 2000, 0x3646449d84d9ab66ULL},
      {"s5378", 7, 0xe8a955aaf7b74867ULL},
      {"s9234", 2000, 0xca9f2504625f2306ULL},
      {"s9234", 7, 0xbcf72dec29678f77ULL},
      {"s15850", 2000, 0x6f880ff81731242fULL},
      {"s15850", 7, 0x40cdaf35ba4203b8ULL},
  };
  for (const Case& k : cases) {
    Fnv1a h;
    h.add(circuit::make_iscas_like(k.circuit, k.seed));
    EXPECT_TRUE(HashIs(h, k.hash)) << k.circuit << " seed " << k.seed;
  }
  Fnv1a h;
  h.add(circuit::generate(circuit::GeneratorSpec{}));
  EXPECT_TRUE(HashIs(h, 0x273b12e97f3f11b4ULL)) << "GeneratorSpec{}";
}

TEST(ThrottleGolden, AdaptiveTrajectory) {
  // A seeded script cycling through clean, storming, thin and mixed
  // phases, so every branch of the control law (first clamp, shrink,
  // deep-storm double shrink, cooldown, hold, slow start, additive
  // probing, thin-sample growth) shapes the recorded trajectory.
  struct Case {
    warped::SimTime base_window;
    std::uint64_t hash;
  };
  for (const Case& k : {Case{0, 0xe207438e89f0dce3ULL},
                        Case{100, 0xa98518ff464e34dcULL}}) {
    warped::OptimismThrottle t(warped::ThrottleConfig{}, k.base_window);
    util::Rng rng(4242);
    for (std::uint64_t round = 1; round <= 2000; ++round) {
      const std::uint64_t phase = (round / 150) % 4;
      const std::uint64_t batches =
          phase == 2 ? rng.below(3) : 4 + rng.below(40);
      for (std::uint64_t b = 0; b < batches; ++b) {
        t.note_executed(1 + rng.below(4), rng.below(600));
      }
      const std::uint64_t rollbacks =
          phase == 1 ? 2 + rng.below(6) : (phase == 3 ? rng.below(3) : 0);
      for (std::uint64_t r = 0; r < rollbacks; ++r) {
        t.note_rollback(1 + rng.below(phase == 1 ? 120 : 20));
      }
      t.on_round(round);
    }
    const warped::ThrottleSummary s = t.summary();
    EXPECT_GT(s.shrinks, 0u);
    EXPECT_GT(s.grows, 0u);
    EXPECT_GT(s.holds, 0u);
    Fnv1a h;
    for (const warped::ThrottleDecision& d : t.trajectory()) {
      h.add(d.round);
      h.add(d.window);
      h.add(static_cast<std::uint64_t>(d.direction + 1));
    }
    EXPECT_TRUE(HashIs(h, k.hash)) << "base window " << k.base_window;
  }
}

TEST(DriverGolden, ProfileGuidedPartitions) {
  struct Case {
    const char* strategy;
    std::uint32_t k;
    std::uint64_t hash;
  };
  const Case cases[] = {
      {"Multilevel", 2, 0xf67b4b8d2a86c5e3ULL},
      {"Multilevel", 4, 0xa18517745f455060ULL},
      {"MultilevelHG", 2, 0x10d784a27a5f4303ULL},
      {"MultilevelHG", 4, 0xe1f1a108fddcf0e1ULL},
  };
  const circuit::Circuit c = circuit::make_iscas_like("s5378", 2000);
  for (const Case& k : cases) {
    framework::DriverConfig cfg;
    cfg.partitioner = k.strategy;
    cfg.num_nodes = k.k;
    cfg.use_activity = true;
    const framework::DriverResult res = framework::partition_only(c, cfg);
    Fnv1a h;
    for (const std::uint32_t a : res.partition.assign) h.add(a);
    EXPECT_TRUE(HashIs(h, k.hash)) << k.strategy << " k=" << k.k;
  }
}

}  // namespace
}  // namespace pls
