#include "multilevel/vcycle.hpp"

namespace pls::multilevel {

partition::Partition project(const std::vector<std::uint32_t>& parent_map,
                             const partition::Partition& coarse) {
  partition::Partition finer;
  finer.k = coarse.k;
  finer.assign.resize(parent_map.size());
  for (std::size_t v = 0; v < parent_map.size(); ++v) {
    finer.assign[v] = coarse.assign[parent_map[v]];
  }
  return finer;
}

partition::Partition single_part(std::size_t n, Trace* trace) {
  if (trace != nullptr) {
    *trace = Trace{};
    trace->quality_after_level.assign(1, 0);
  }
  partition::Partition p;
  p.k = 1;
  p.assign.assign(n, 0);
  return p;
}

}  // namespace pls::multilevel
