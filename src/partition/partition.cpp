#include "partition/partition.hpp"

#include "util/check.hpp"

namespace pls::partition {

std::vector<std::uint64_t> Partition::loads(
    const std::vector<std::uint32_t>& weights) const {
  std::vector<std::uint64_t> out(k, 0);
  for (std::size_t v = 0; v < assign.size(); ++v) {
    const std::uint32_t w =
        weights.empty() ? 1u : weights.at(v);
    out.at(assign[v]) += w;
  }
  return out;
}

void Partition::validate(std::size_t num_gates) const {
  PLS_CHECK_MSG(k >= 1, "partition needs k >= 1");
  PLS_CHECK_MSG(assign.size() == num_gates,
                "partition covers " << assign.size() << " gates, circuit has "
                                    << num_gates);
  for (std::size_t v = 0; v < assign.size(); ++v) {
    PLS_CHECK_MSG(assign[v] < k, "gate " << v << " assigned to part "
                                         << assign[v] << " >= k=" << k);
  }
}

}  // namespace pls::partition
