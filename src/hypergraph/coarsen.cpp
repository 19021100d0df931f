#include "hypergraph/coarsen.hpp"

#include <algorithm>
#include <numeric>

#include "util/check.hpp"
#include "util/rng.hpp"

namespace pls::hypergraph {
namespace {

constexpr std::uint32_t kNone = ~std::uint32_t{0};

/// One heavy-pin matching round.  Returns the fine-vertex → globule map and
/// the globule count.
std::pair<std::vector<std::uint32_t>, std::size_t> heavy_pin_round(
    const Hypergraph& hg, const std::vector<std::uint8_t>& contains_input,
    const HgCoarsenOptions& opt, util::Rng& rng) {
  const std::size_t n = hg.num_vertices();
  std::vector<std::uint32_t> globule(n, kNone);
  std::uint32_t next_globule = 0;

  std::vector<std::uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  rng.shuffle(order);

  // Sparse rating accumulator, reset via the touched list.
  std::vector<double> score(n, 0.0);
  std::vector<VertexId> touched;

  const Hypergraph::Csr csr = hg.csr();
  for (const VertexId v : order) {
    if (globule[v] != kNone) continue;
    touched.clear();
    const bool v_input = contains_input[v] != 0;
    const std::uint64_t v_weight = csr.vertex_weight[v];
    for (NetId e : csr.nets(v)) {
      const auto pin_span = csr.pins(e);
      if (pin_span.size() > opt.rating_pin_limit) continue;
      const double r = static_cast<double>(csr.net_weight[e]) /
                       static_cast<double>(pin_span.size() - 1);
      for (VertexId u : pin_span) {
        if (u == v || globule[u] != kNone) continue;
        if (v_input && contains_input[u]) continue;  // PI rule
        if (opt.max_globule_weight != 0 &&
            v_weight + csr.vertex_weight[u] > opt.max_globule_weight) {
          continue;  // weight cap: keep globules movable by refinement
        }
        if (score[u] == 0.0) touched.push_back(u);
        score[u] += r;
      }
    }
    VertexId best = kNone;
    double best_score = 0.0;
    for (VertexId u : touched) {
      // Prefer the lighter partner on ties: keeps globule weights even.
      if (score[u] > best_score ||
          (score[u] == best_score && best != kNone &&
           csr.vertex_weight[u] < csr.vertex_weight[best])) {
        best_score = score[u];
        best = u;
      }
      score[u] = 0.0;
    }
    globule[v] = next_globule;
    if (best != kNone) globule[best] = next_globule;
    ++next_globule;
  }
  return {std::move(globule), next_globule};
}

/// Contract `fine` through `globule`, writing the coarse CSR directly.
/// Each fine net maps to its sorted, duplicate-free set of globules; a set
/// of fewer than two is swallowed by one globule, and a set equal to an
/// earlier net's folds into that net (weights summed), so coarse nets keep
/// first-occurrence order.  Earlier sets are found through a flat
/// open-addressing table of coarse net ids keyed by an FNV-1a hash of the
/// pins, kept at most half full.
Hypergraph contract(const Hypergraph& fine,
                    const std::vector<std::uint32_t>& globule,
                    std::size_t num_globules) {
  const Hypergraph::Csr csr = fine.csr();
  std::vector<std::uint32_t> vweight(num_globules, 0);
  for (VertexId v = 0; v < fine.num_vertices(); ++v) {
    vweight[globule[v]] += csr.vertex_weight[v];
  }

  std::vector<std::uint32_t> net_off{0};
  std::vector<VertexId> pins;
  std::vector<std::uint32_t> net_weights;
  std::vector<std::uint64_t> net_hash;
  net_off.reserve(fine.num_nets() + 1);
  pins.reserve(fine.num_pins());
  net_weights.reserve(fine.num_nets());
  net_hash.reserve(fine.num_nets());
  std::size_t slots = 2;
  while (slots < 2 * fine.num_nets()) slots *= 2;
  std::vector<std::uint32_t> table(slots, kNone);

  for (NetId e = 0; e < fine.num_nets(); ++e) {
    const std::size_t start = pins.size();
    for (VertexId v : csr.pins(e)) pins.push_back(globule[v]);
    const auto first = pins.begin() + static_cast<std::ptrdiff_t>(start);
    std::sort(first, pins.end());
    pins.erase(std::unique(first, pins.end()), pins.end());
    if (pins.size() - start < 2) {  // net swallowed by a globule
      pins.resize(start);
      continue;
    }

    std::uint64_t h = 1469598103934665603ULL;  // FNV-1a over the pin ids
    for (std::size_t i = start; i < pins.size(); ++i) {
      h ^= pins[i];
      h *= 1099511628211ULL;
    }
    for (std::size_t slot = h & (slots - 1);; slot = (slot + 1) & (slots - 1)) {
      const std::uint32_t id = table[slot];
      if (id == kNone) {
        table[slot] = static_cast<std::uint32_t>(net_weights.size());
        net_off.push_back(static_cast<std::uint32_t>(pins.size()));
        net_weights.push_back(csr.net_weight[e]);
        net_hash.push_back(h);
        break;
      }
      if (net_hash[id] == h &&
          std::equal(pins.begin() + net_off[id],
                     pins.begin() + net_off[id + 1], first, pins.end())) {
        net_weights[id] += csr.net_weight[e];
        pins.resize(start);
        break;
      }
    }
  }
  return Hypergraph::from_csr(std::move(vweight), std::move(net_off),
                              std::move(pins), std::move(net_weights));
}

}  // namespace

HgHierarchy coarsen(const circuit::Circuit& c, const HgCoarsenOptions& opt) {
  PLS_CHECK_MSG(c.frozen(), "coarsen requires a frozen circuit");
  const std::size_t threshold = opt.threshold == 0 ? 64 : opt.threshold;
  util::Rng rng(opt.seed);

  HgHierarchy h;
  h.base = Hypergraph::from_circuit(c, opt.weights);
  h.base_contains_input.assign(c.size(), 0);
  for (circuit::GateId pi : c.primary_inputs()) h.base_contains_input[pi] = 1;

  const Hypergraph* cur = &h.base;
  const std::vector<std::uint8_t>* cur_inputs = &h.base_contains_input;

  while (h.levels.size() < opt.max_levels &&
         cur->num_vertices() > threshold) {
    const bool all_inputs =
        std::all_of(cur_inputs->begin(), cur_inputs->end(),
                    [](std::uint8_t b) { return b != 0; });
    if (all_inputs) break;

    auto [globule, count] = heavy_pin_round(*cur, *cur_inputs, opt, rng);
    if (count == cur->num_vertices()) break;  // no merges happened; stuck

    HgCoarseLevel level;
    level.graph = contract(*cur, globule, count);
    level.contains_input.assign(count, 0);
    std::vector<std::uint32_t> members(count, 0);
    for (VertexId v = 0; v < cur->num_vertices(); ++v) {
      level.contains_input[globule[v]] |= (*cur_inputs)[v];
      ++members[globule[v]];
    }
    level.merged_globules = static_cast<std::size_t>(
        std::count_if(members.begin(), members.end(),
                      [](std::uint32_t m) { return m >= 2; }));
    level.parent_map = std::move(globule);
    h.levels.push_back(std::move(level));

    cur = &h.levels.back().graph;
    cur_inputs = &h.levels.back().contains_input;
  }
  return h;
}

}  // namespace pls::hypergraph
