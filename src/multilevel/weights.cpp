#include "multilevel/weights.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace pls::multilevel {

bool VertexTrafficWeights::uniform() const noexcept {
  const bool unit_vertices =
      std::all_of(vertex.begin(), vertex.end(),
                  [](std::uint32_t w) { return w == 1; });
  if (!unit_vertices) return false;
  if (traffic.empty()) return true;
  const std::uint32_t first = traffic.front();
  return std::all_of(traffic.begin(), traffic.end(),
                     [first](std::uint32_t w) { return w == first; });
}

std::uint64_t VertexTrafficWeights::total_vertex_weight() const noexcept {
  std::uint64_t total = 0;
  for (std::uint32_t w : vertex) total += w;
  return total;
}

VertexTrafficWeights uniform_weights(std::size_t n) {
  VertexTrafficWeights w;
  w.vertex.assign(n, 1);
  w.traffic.assign(n, 1);
  return w;
}

VertexTrafficWeights weights_from_activity(const std::vector<double>& work,
                                           const std::vector<double>& traffic) {
  PLS_CHECK_MSG(work.size() == traffic.size(),
                "work and traffic profiles must cover the same gates");
  VertexTrafficWeights w;
  w.vertex.reserve(work.size());
  w.traffic.reserve(work.size());
  for (std::size_t g = 0; g < work.size(); ++g) {
    PLS_CHECK_MSG(std::isfinite(work[g]) && work[g] >= 0.0 &&
                      std::isfinite(traffic[g]) && traffic[g] >= 0.0,
                  "activity must be finite and non-negative at gate " << g);
    w.vertex.push_back(static_cast<std::uint32_t>(std::clamp<long>(
        std::lround(work[g]), 1, static_cast<long>(kVertexCap))));
    w.traffic.push_back(static_cast<std::uint32_t>(std::clamp<long>(
        std::lround(static_cast<double>(kTrafficGranularity) * traffic[g]),
        1, static_cast<long>(kTrafficCap))));
  }
  return w;
}

VertexTrafficWeights weights_from_activity(
    const std::vector<double>& activity) {
  return weights_from_activity(activity, activity);
}

}  // namespace pls::multilevel
