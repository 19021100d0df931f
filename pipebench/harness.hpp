#pragma once
// Helpers of the pipeline benchmark: sample statistics, the span log and
// its self-time arithmetic, the host-speed reference sort, metric-name
// validation and failure accounting.  Nothing here touches the simulator,
// so selftest.cpp pins every helper on fixed inputs.

#include <cstdint>
#include <exception>
#include <string>
#include <string_view>
#include <vector>

namespace pipebench {

// ---- sample statistics ----------------------------------------------------

/// Quantile q in [0, 1] by linear interpolation between order statistics
/// (util::Samples::percentile).  Throws util::CheckError on empty input.
double quantile(const std::vector<double>& xs, double q);
double median(const std::vector<double>& xs);
/// Interquartile range as a share of the median (0 when the median is 0).
double iqr_share(const std::vector<double>& xs);

/// The highest quantile of {0.5, 0.75, 0.9, 0.95, 0.99, 0.999} that still
/// has at least ten of `n` samples beyond it, or 0 when even the median
/// has fewer than ten.
double tail_quantile(std::size_t n);

// ---- spans ----------------------------------------------------------------

/// One timed call.  Spans of one pipeline iteration share `iter`; every
/// span but the iteration span has a parent inside the same iteration.
struct Span {
  std::string name;
  std::uint64_t iter = 0;
  int id = 0;
  int parent = -1;  ///< -1 = root (the iteration span)
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;

  double seconds() const noexcept {
    return static_cast<double>(end_ns - start_ns) * 1e-9;
  }
};

/// In-memory span recorder, single-threaded.  begin() opens a child of the
/// innermost open span; end() closes the innermost open span.
class SpanLog {
 public:
  int begin(std::string name, std::uint64_t iter);
  /// Closes the innermost open span and returns its duration in seconds.
  double end();
  /// Open spans (the nesting depth).
  std::size_t depth() const noexcept { return open_.size(); }
  /// Closes open spans until `depth` remain (an iteration that threw
  /// mid-way).
  void end_to(std::size_t depth);

  const std::vector<Span>& spans() const noexcept { return spans_; }
  /// Spans of iteration `iter`, in begin order.
  std::vector<Span> iteration(std::uint64_t iter) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Self time of every span in `spans` (same order): its duration minus the
/// part of its interval that its direct children cover (children may
/// overlap one another; each instant counts once).
std::vector<double> self_seconds(const std::vector<Span>& spans);

/// Layer of a span name: the text before the first '.', or "bench" for a
/// name without one (the iteration span).
std::string layer_of(std::string_view span_name);

/// Time of one iteration's spans named `name`, summed (0 when absent).
double span_seconds(const std::vector<Span>& spans, std::string_view name);

// ---- host-speed reference -------------------------------------------------

/// A fixed piece of work that belongs to no layer of the simulator:
/// std::sort of `keys` pseudo-random 64-bit keys (1 MiB by default), the
/// same keys every pass.  Its time follows the speed the shared host gives
/// this process at that moment, so a pipeline time divided by the time of
/// the pass just before it holds still while other tenants slow the
/// machine down or free it up; the quotient moves when the pipeline does.
class ReferenceSort {
 public:
  explicit ReferenceSort(std::size_t keys = std::size_t{1} << 17);
  /// Rewrites the keys (untimed), then sorts them; returns the sort's wall
  /// time in seconds.  The rewrite touches every key, so the sort starts
  /// from the same cache state whatever ran before it.
  double run_seconds();
  /// The keys after the last pass (sorted).
  const std::vector<std::uint64_t>& keys() const noexcept { return keys_; }

 private:
  std::vector<std::uint64_t> keys_;
};

// ---- metric names ---------------------------------------------------------

/// True for 1..64 characters of [A-Za-z0-9_.-] starting with a letter or
/// digit — the names BENCHMARK.json accepts.
bool valid_metric_name(std::string_view name);

// ---- failure accounting ---------------------------------------------------

/// Iterations attempted versus verified.  A failure is counted, never
/// thrown past the loop, and its timing sample is kept.
class Tally {
 public:
  void record(bool verified, std::string reason = {});
  std::uint64_t attempted() const noexcept { return attempted_; }
  std::uint64_t failed() const noexcept { return failed_; }
  double verified_frac() const noexcept;
  /// First failure reason seen (empty when none failed).
  const std::string& first_reason() const noexcept { return first_reason_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::string first_reason_;
};

/// Run `body` (which returns an empty string on success or a failure
/// reason) and record the outcome in `tally`.  An exception thrown by the
/// body counts as a failed iteration, with its what() as the reason, and
/// every span the body left open is closed so its timing still counts.
template <class Body>
void run_counted(Tally& tally, SpanLog& log, Body&& body) {
  const std::size_t depth = log.depth();
  std::string reason;
  try {
    reason = body();
  } catch (const std::exception& e) {
    reason = std::string("threw: ") + e.what();
    log.end_to(depth);
  }
  const bool verified = reason.empty();
  tally.record(verified, std::move(reason));
}

}  // namespace pipebench
