// Unit tests for the util layer: RNG determinism and distribution,
// percentiles, CSV escaping, CLI parsing, table rendering, spin calibration.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>

#include "util/check.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace pls::util {
namespace {

TEST(Rng, DeterministicForEqualSeeds) {
  Rng a(123), b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next() == b.next());
  EXPECT_LT(same, 2);
}

TEST(Rng, BelowStaysInRange) {
  Rng r(7);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull, 1ull << 40}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(r.below(bound), bound);
  }
}

TEST(Rng, BelowZeroOrOneBoundIsZero) {
  Rng r(9);
  EXPECT_EQ(r.below(0), 0u);
  EXPECT_EQ(r.below(1), 0u);
}

TEST(Rng, BelowIsRoughlyUniform) {
  Rng r(11);
  constexpr int kBuckets = 8;
  constexpr int kDraws = 80000;
  int counts[kBuckets] = {};
  for (int i = 0; i < kDraws; ++i) ++counts[r.below(kBuckets)];
  for (int c : counts) {
    EXPECT_NEAR(c, kDraws / kBuckets, kDraws / kBuckets * 0.1);
  }
}

TEST(Rng, RangeInclusive) {
  Rng r(13);
  bool lo_seen = false, hi_seen = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = r.range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    lo_seen |= (v == -3);
    hi_seen |= (v == 3);
  }
  EXPECT_TRUE(lo_seen);
  EXPECT_TRUE(hi_seen);
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(17);
  double sum = 0;
  for (int i = 0; i < 20000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 20000, 0.5, 0.02);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng r(19);
  std::vector<int> v{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  auto w = v;
  r.shuffle(w);
  std::sort(w.begin(), w.end());
  EXPECT_EQ(v, w);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(21);
  Rng child = a.split();
  // Child stream should not replicate the parent stream.
  Rng b(21);
  (void)b.split();
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (child.next() == b.next());
  EXPECT_LT(same, 2);
}

TEST(SplitMix64, KnownFirstValueIsStable) {
  SplitMix64 s(0);
  const auto v1 = s.next();
  SplitMix64 t(0);
  EXPECT_EQ(v1, t.next());
  EXPECT_NE(v1, t.next());
}

TEST(Samples, PercentileInterpolates) {
  Samples s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 100.0);
  EXPECT_NEAR(s.percentile(50), 50.5, 1e-9);
}

TEST(Samples, PercentileOfEmptyThrows) {
  Samples s;
  EXPECT_THROW(s.percentile(50), CheckError);
}

TEST(Csv, EscapesSpecials) {
  EXPECT_EQ(CsvWriter::escape("plain"), "plain");
  EXPECT_EQ(CsvWriter::escape("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvWriter::escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(CsvWriter::escape("line\nbreak"), "\"line\nbreak\"");
}

TEST(Csv, WritesHeaderAndRows) {
  const std::string path = "/tmp/pls_csv_test.csv";
  {
    CsvWriter w(path, {"a", "b"});
    w.row({"1", "x,y"});
    w.row({"2", "z"});
    w.flush();
    EXPECT_EQ(w.rows_written(), 2u);
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a,b");
  std::getline(in, line);
  EXPECT_EQ(line, "1,\"x,y\"");
  std::remove(path.c_str());
}

TEST(Csv, RowWidthMismatchThrows) {
  CsvWriter w("/tmp/pls_csv_test2.csv", {"a", "b"});
  EXPECT_THROW(w.row({"only-one"}), CheckError);
  std::remove("/tmp/pls_csv_test2.csv");
}

TEST(Cli, ParsesFlagsAndPositionals) {
  Cli cli("test");
  cli.add_flag("nodes", "node count", "4");
  cli.add_flag("verbose", "chatty", "false");
  cli.add_flag("name", "a name", "def");
  const char* argv[] = {"prog", "--nodes=8", "--verbose", "pos1",
                        "--name", "abc", "pos2"};
  ASSERT_TRUE(cli.parse(7, argv));
  EXPECT_EQ(cli.get_int("nodes"), 8);
  EXPECT_TRUE(cli.get_bool("verbose"));
  EXPECT_EQ(cli.get("name"), "abc");
  ASSERT_EQ(cli.positional().size(), 2u);
  EXPECT_EQ(cli.positional()[0], "pos1");
}

TEST(Cli, UnknownFlagFails) {
  Cli cli("test");
  const char* argv[] = {"prog", "--bogus=1"};
  EXPECT_FALSE(cli.parse(2, argv));
}

TEST(Cli, DefaultsApply) {
  Cli cli("test");
  cli.add_flag("n", "count", "17");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(cli.parse(1, argv));
  EXPECT_EQ(cli.get_int("n"), 17);
}

TEST(Cli, BadIntegerThrows) {
  Cli cli("test");
  cli.add_flag("n", "count", "17");
  const char* argv[] = {"prog", "--n=notanumber"};
  ASSERT_TRUE(cli.parse(2, argv));
  EXPECT_THROW(cli.get_int("n"), std::runtime_error);
}

TEST(Cli, RangeCheckedIntegerRejectsWrapAndJunk) {
  const auto read = [](const char* value) {
    Cli c("test");
    c.add_flag("n", "count", "17");
    const char* argv[] = {"prog", "--n", value};
    EXPECT_TRUE(c.parse(3, argv));
    return c.get_u64("n", 1, 100);
  };
  EXPECT_EQ(read("1"), 1u);
  EXPECT_EQ(read("100"), 100u);
  EXPECT_THROW(read("0"), FlagError);
  EXPECT_THROW(read("101"), FlagError);
  EXPECT_THROW(read("-1"), FlagError);  // would wrap to 2^64 - 1
  EXPECT_THROW(read("4x"), FlagError);
  try {
    read("-1");
  } catch (const FlagError& e) {
    EXPECT_STREQ(e.what(), "--n must be in [1, 100], got -1");
  }
}

TEST(Cli, RangeCheckedNumberRejectsZeroNanAndJunk) {
  const auto read = [](const char* value) {
    Cli c("test");
    c.add_flag("scale", "size multiplier", "0.5");
    const char* argv[] = {"prog", "--scale", value};
    EXPECT_TRUE(c.parse(3, argv));
    return c.get_double("scale", 0.0, 4.0);
  };
  EXPECT_DOUBLE_EQ(read("0.25"), 0.25);
  EXPECT_DOUBLE_EQ(read("4"), 4.0);
  EXPECT_THROW(read("0"), FlagError);  // the lower bound is exclusive
  EXPECT_THROW(read("-1"), FlagError);
  EXPECT_THROW(read("4.5"), FlagError);
  EXPECT_THROW(read("nan"), FlagError);
  EXPECT_THROW(read("inf"), FlagError);
  EXPECT_THROW(read("0.5x"), FlagError);
  try {
    read("0");
  } catch (const FlagError& e) {
    EXPECT_STREQ(e.what(), "--scale must be in (0, 4], got 0");
  }
}

TEST(Table, RendersAlignedGrid) {
  AsciiTable t({"circuit", "time"});
  t.add_row({"s5378", "91.66"});
  t.add_rule();
  t.add_row({"s9234", "529.39"});
  const std::string out = t.render();
  EXPECT_NE(out.find("s5378"), std::string::npos);
  EXPECT_NE(out.find("| circuit |"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(Table, NumFormatsAndNaN) {
  EXPECT_EQ(AsciiTable::num(1.23456, 2), "1.23");
  EXPECT_EQ(AsciiTable::num(std::nan(""), 2), "-");
}

TEST(Table, RowWidthMismatchThrows) {
  AsciiTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"1"}), CheckError);
}

TEST(Timer, MeasuresElapsedTime) {
  WallTimer t;
  busy_spin_ns(2'000'000);  // 2 ms
  const double e = t.elapsed_seconds();
  EXPECT_GT(e, 0.0005);
  EXPECT_LT(e, 0.5);
}

TEST(Timer, SpinCalibrationIsSane) {
  // Any machine this runs on executes between 0.05 and 100 iterations/ns.
  EXPECT_GT(spin_iters_per_ns(), 0.05);
  EXPECT_LT(spin_iters_per_ns(), 100.0);
}

TEST(Timer, SpinDurationApproximatesRequest) {
  busy_spin_ns(1000);  // warm
  WallTimer t;
  busy_spin_ns(5'000'000);
  const double e = t.elapsed_seconds();
  EXPECT_GT(e, 0.002);
  EXPECT_LT(e, 0.1);
}

TEST(Check, ThrowsWithMessage) {
  try {
    PLS_CHECK_MSG(1 == 2, "math broke: " << 42);
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("math broke: 42"),
              std::string::npos);
  }
}

TEST(Check, PassingCheckIsSilent) {
  EXPECT_NO_THROW(PLS_CHECK(2 + 2 == 4));
}

}  // namespace
}  // namespace pls::util
