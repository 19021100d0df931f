// Self-tests of the benchmark's pure helpers (harness.hpp) on pinned
// inputs.  run.py runs this after every build; a failure stops the
// benchmark before it measures anything.  Exit code 0 = all passed.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness.hpp"

namespace {

int g_failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++g_failures;
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

pipebench::Span span(int id, int parent, std::uint64_t start,
                     std::uint64_t end, std::uint64_t iter = 1) {
  pipebench::Span s;
  s.iter = iter;
  s.id = id;
  s.parent = parent;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

void test_statistics() {
  using pipebench::iqr_share;
  using pipebench::median;
  using pipebench::quantile;
  const std::vector<double> xs = {5, 1, 4, 2, 3};
  expect(near(median(xs), 3.0), "median of 1..5 is 3");
  expect(near(median({4, 1, 3, 2}), 2.5), "even-count median interpolates");
  expect(near(quantile(xs, 0.25), 2.0), "q1 of 1..5 is 2");
  expect(near(quantile(xs, 0.75), 4.0), "q3 of 1..5 is 4");
  expect(near(quantile(xs, 0.9), 4.6), "q0.9 of 1..5 interpolates to 4.6");
  expect(near(quantile({7}, 0.99), 7.0), "a single sample is every quantile");
  expect(near(iqr_share(xs), 2.0 / 3.0), "iqr share of 1..5 is 2/3");
  expect(near(iqr_share({0, 0, 0}), 0.0), "zero median gives zero share");
  bool threw = false;
  try {
    (void)median({});
  } catch (const std::exception&) {
    threw = true;
  }
  expect(threw, "median of no samples throws");

  using pipebench::tail_quantile;
  expect(tail_quantile(19) == 0.0, "19 samples: no quantile has 10 beyond");
  expect(tail_quantile(20) == 0.5, "20 samples: median");
  expect(tail_quantile(39) == 0.5, "39 samples: still the median");
  expect(tail_quantile(40) == 0.75, "40 samples: p75");
  expect(tail_quantile(100) == 0.9, "100 samples: p90");
  expect(tail_quantile(1000) == 0.99, "1000 samples: p99");
  expect(tail_quantile(10000) == 0.999, "10000 samples: p99.9");
}

void test_self_time() {
  // iteration [0,100) ⊃ a [10,40) ⊃ a.x [15,25); iteration ⊃ b [30,60)
  // overlapping a, and c [90,120) running past the parent's end.
  const std::vector<pipebench::Span> spans = {
      span(0, -1, 0, 100), span(1, 0, 10, 40), span(2, 1, 15, 25),
      span(3, 0, 30, 60),  span(4, 0, 90, 120),
      // Same ids in another iteration must not count as children.
      span(5, 0, 0, 100, 2),
  };
  const std::vector<double> self = pipebench::self_seconds(spans);
  // Children of 0 cover [10,60) ∪ [90,100) = 60 ns.
  expect(near(self[0], 40e-9), "root self time excludes the union");
  expect(near(self[1], 20e-9), "nested child subtracts its own child");
  expect(near(self[2], 10e-9), "leaf self time is its duration");
  expect(near(self[3], 30e-9), "overlapping sibling keeps its duration");
  expect(near(self[4], 30e-9), "child past the parent's end is a leaf");

  pipebench::SpanLog log;
  log.begin("iteration", 7);
  log.begin("partition", 7);
  log.begin("partition.run", 7);
  expect(log.depth() == 3, "three spans open");
  log.end_to(1);
  expect(log.depth() == 1, "end_to closes down to the iteration");
  log.end();
  const auto it = log.iteration(7);
  expect(it.size() == 3, "three spans recorded");
  expect(it[1].parent == it[0].id && it[2].parent == it[1].id,
         "parents follow nesting");
  expect(it[0].end_ns >= it[2].end_ns, "parent closes after its children");
  expect(pipebench::layer_of("iteration") == "bench", "iteration is bench");
  expect(pipebench::layer_of("partition.run") == "partition",
         "layer is the prefix");
  expect(pipebench::span_seconds(it, "absent") == 0.0, "absent span is 0");
}

void test_metric_names() {
  using pipebench::valid_metric_name;
  expect(valid_metric_name("e2e_s"), "e2e_s is valid");
  expect(valid_metric_name("warped.ns_per_committed_event"), "dots valid");
  expect(valid_metric_name("9lanes-x"), "leading digit, dash valid");
  expect(!valid_metric_name(""), "empty is invalid");
  expect(!valid_metric_name("_x"), "leading underscore is invalid");
  expect(!valid_metric_name("sim s"), "space is invalid");
  expect(!valid_metric_name("a/b"), "slash is invalid");
  expect(valid_metric_name(std::string(64, 'a')), "64 characters valid");
  expect(!valid_metric_name(std::string(65, 'a')), "65 characters invalid");
}

void test_reference_sort() {
  pipebench::ReferenceSort ref(1000);
  expect(ref.run_seconds() > 0.0, "a reference pass takes time");
  const std::vector<std::uint64_t> first = ref.keys();
  expect(std::is_sorted(first.begin(), first.end()), "the pass sorts");
  expect(first.front() != first.back(), "the keys are not all equal");
  ref.run_seconds();
  expect(ref.keys() == first, "every pass sorts the same keys");
}

void test_failure_counting() {
  pipebench::Tally t;
  pipebench::SpanLog log;
  std::vector<double> samples;
  for (int i = 0; i < 4; ++i) {
    log.begin("iteration", static_cast<std::uint64_t>(i));
    pipebench::run_counted(t, log, [&]() -> std::string {
      log.begin("warped.run", static_cast<std::uint64_t>(i));
      if (i == 1) throw std::runtime_error("boom");
      log.end();
      return i == 3 ? "stalled" : "";
    });
    samples.push_back(log.end());
  }
  expect(t.attempted() == 4, "every iteration is attempted");
  expect(t.failed() == 2, "a throw and a reason each count as a failure");
  expect(near(t.verified_frac(), 0.5), "verified fraction 2/4");
  expect(t.first_reason() == "threw: boom", "first reason kept");
  expect(samples.size() == 4, "failed iterations keep their sample");
  expect(log.depth() == 0, "a throw leaves no span open");
  expect(pipebench::Tally{}.verified_frac() == 0.0, "nothing attempted is 0");
}

}  // namespace

int main() {
  test_statistics();
  test_self_time();
  test_metric_names();
  test_reference_sort();
  test_failure_counting();
  if (g_failures == 0) std::printf("pipebench selftest: all passed\n");
  return g_failures == 0 ? 0 : 1;
}
