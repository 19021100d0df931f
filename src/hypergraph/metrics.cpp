#include "hypergraph/metrics.hpp"

#include <vector>

#include "multilevel/metrics.hpp"
#include "util/check.hpp"

namespace pls::hypergraph {
namespace {

constexpr NetId kNoNet = ~NetId{0};

/// Number of distinct parts among net e's pins, in one walk of its pins.
/// `last[q]` is the last net that counted part q; callers visit each net
/// once, so a part counts once per net with no reset between nets.
std::uint32_t lambda_of(const Hypergraph::Csr& csr, NetId e,
                        const partition::Partition& p,
                        std::vector<NetId>& last) {
  std::uint32_t lambda = 0;
  for (VertexId v : csr.pins(e)) {
    NetId& seen = last[p.assign[v]];
    lambda += seen != e ? 1 : 0;
    seen = e;
  }
  return lambda;
}

}  // namespace

std::uint64_t cut_net(const Hypergraph& hg, const partition::Partition& p) {
  p.validate(hg.num_vertices());
  const Hypergraph::Csr csr = hg.csr();
  std::uint64_t cut = 0;
  std::vector<NetId> last(p.k, kNoNet);
  for (NetId e = 0; e < hg.num_nets(); ++e) {
    if (lambda_of(csr, e, p, last) > 1) cut += csr.net_weight[e];
  }
  return cut;
}

std::uint64_t connectivity_minus_one(const Hypergraph& hg,
                                     const partition::Partition& p) {
  p.validate(hg.num_vertices());
  const Hypergraph::Csr csr = hg.csr();
  std::uint64_t volume = 0;
  std::vector<NetId> last(p.k, kNoNet);
  for (NetId e = 0; e < hg.num_nets(); ++e) {
    volume += std::uint64_t{csr.net_weight[e]} *
              (lambda_of(csr, e, p, last) - 1);
  }
  return volume;
}

double imbalance(const Hypergraph& hg, const partition::Partition& p) {
  p.validate(hg.num_vertices());
  std::vector<std::uint64_t> load(p.k, 0);
  for (VertexId v = 0; v < hg.num_vertices(); ++v) {
    load[p.assign[v]] += hg.vertex_weight(v);
  }
  return multilevel::imbalance_from_loads(load, hg.total_vertex_weight(),
                                          p.k);
}

}  // namespace pls::hypergraph
