#include "harness.hpp"

#include <algorithm>
#include <utility>

#include "util/check.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

namespace pipebench {

double quantile(const std::vector<double>& xs, double q) {
  pls::util::Samples s;
  for (const double x : xs) s.add(x);
  return s.percentile(q * 100.0);
}

double median(const std::vector<double>& xs) { return quantile(xs, 0.5); }

double iqr_share(const std::vector<double>& xs) {
  const double m = median(xs);
  return m == 0.0 ? 0.0 : (quantile(xs, 0.75) - quantile(xs, 0.25)) / m;
}

double tail_quantile(std::size_t n) {
  double best = 0.0;
  // Quantiles in thousandths, so n·(1−q) samples beyond is counted exactly.
  for (const std::size_t q : {500, 750, 900, 950, 990, 999}) {
    if (n * (1000 - q) / 1000 >= 10) best = static_cast<double>(q) / 1000.0;
  }
  return best;
}

int SpanLog::begin(std::string name, std::uint64_t iter) {
  Span s;
  s.name = std::move(name);
  s.iter = iter;
  s.id = static_cast<int>(spans_.size());
  s.parent = open_.empty() ? -1 : open_.back();
  s.start_ns = pls::util::steady_now_ns();
  spans_.push_back(std::move(s));
  open_.push_back(spans_.back().id);
  return spans_.back().id;
}

double SpanLog::end() {
  PLS_CHECK_MSG(!open_.empty(), "SpanLog::end with no open span");
  Span& s = spans_[static_cast<std::size_t>(open_.back())];
  open_.pop_back();
  s.end_ns = pls::util::steady_now_ns();
  return s.seconds();
}

void SpanLog::end_to(std::size_t depth) {
  while (open_.size() > depth) end();
}

std::vector<Span> SpanLog::iteration(std::uint64_t iter) const {
  std::vector<Span> out;
  for (const Span& s : spans_) {
    if (s.iter == iter) out.push_back(s);
  }
  return out;
}

std::vector<double> self_seconds(const std::vector<Span>& spans) {
  std::vector<double> out;
  out.reserve(spans.size());
  for (const Span& s : spans) {
    // Union of the children's intervals, clipped to the parent.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> kids;
    for (const Span& c : spans) {
      if (c.parent != s.id || c.iter != s.iter) continue;
      const std::uint64_t lo = std::max(c.start_ns, s.start_ns);
      const std::uint64_t hi = std::min(c.end_ns, s.end_ns);
      if (hi > lo) kids.emplace_back(lo, hi);
    }
    std::sort(kids.begin(), kids.end());
    std::uint64_t covered = 0;
    std::uint64_t reach = s.start_ns;
    for (const auto& [lo, hi] : kids) {
      const std::uint64_t from = std::max(lo, reach);
      if (hi > from) covered += hi - from;
      reach = std::max(reach, hi);
    }
    out.push_back(static_cast<double>(s.end_ns - s.start_ns - covered) *
                  1e-9);
  }
  return out;
}

std::string layer_of(std::string_view span_name) {
  const std::size_t dot = span_name.find('.');
  return dot == std::string_view::npos ? "bench"
                                       : std::string(span_name.substr(0, dot));
}

double span_seconds(const std::vector<Span>& spans, std::string_view name) {
  double total = 0.0;
  for (const Span& s : spans) {
    if (s.name == name) total += s.seconds();
  }
  return total;
}

ReferenceSort::ReferenceSort(std::size_t keys) : keys_(keys) {
  PLS_CHECK(keys >= 1);
}

double ReferenceSort::run_seconds() {
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;  // xorshift64, fixed seed
  for (std::uint64_t& k : keys_) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    k = x;
  }
  const std::uint64_t t0 = pls::util::steady_now_ns();
  std::sort(keys_.begin(), keys_.end());
  return static_cast<double>(pls::util::steady_now_ns() - t0) * 1e-9;
}

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char ch) {
    return (ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z') ||
           (ch >= '0' && ch <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char ch) {
    return alnum(ch) || ch == '_' || ch == '.' || ch == '-';
  });
}

void Tally::record(bool verified, std::string reason) {
  ++attempted_;
  if (verified) return;
  ++failed_;
  if (first_reason_.empty()) {
    first_reason_ = reason.empty() ? "unverified" : std::move(reason);
  }
}

double Tally::verified_frac() const noexcept {
  return attempted_ == 0 ? 0.0
                         : static_cast<double>(attempted_ - failed_) /
                               static_cast<double>(attempted_);
}

}  // namespace pipebench
