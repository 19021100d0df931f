#include "util/stats.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace pls::util {

double Samples::percentile(double p) const {
  PLS_CHECK_MSG(!xs_.empty(), "percentile of empty sample set");
  PLS_CHECK(p >= 0.0 && p <= 100.0);
  std::vector<double> sorted = xs_;
  std::sort(sorted.begin(), sorted.end());
  if (sorted.size() == 1) return sorted.front();
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

}  // namespace pls::util
