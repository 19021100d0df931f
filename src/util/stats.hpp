#pragma once
// Exact percentiles over stored samples, for the harnesses that summarize
// repeated runs.

#include <vector>

namespace pls::util {

/// Stores all samples; supports exact percentiles. Used by harnesses that
/// repeat runs (the paper repeated each experiment five times and reported
/// the average).
class Samples {
 public:
  void add(double x) { xs_.push_back(x); }
  /// Exact percentile by linear interpolation, p in [0,100].
  double percentile(double p) const;

 private:
  std::vector<double> xs_;
};

}  // namespace pls::util
