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
    level.hg = contract(*cur, globule, count);
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

    cur = &h.levels.back().hg;
    cur_inputs = &h.levels.back().contains_input;
  }
  return h;
}

void check_hg_hierarchy_invariants(const HgHierarchy& h) {
  const Hypergraph* fine = &h.base;
  const std::vector<std::uint8_t>* fine_inputs = &h.base_contains_input;
  for (std::size_t li = 0; li < h.levels.size(); ++li) {
    const HgCoarseLevel& lvl = h.levels[li];
    PLS_CHECK_MSG(lvl.parent_map.size() == fine->num_vertices(),
                  "level " << li << " parent map incomplete");
    std::vector<std::uint64_t> wsum(lvl.hg.num_vertices(), 0);
    std::vector<std::uint32_t> input_members(lvl.hg.num_vertices(), 0);
    for (VertexId v = 0; v < fine->num_vertices(); ++v) {
      const std::uint32_t p = lvl.parent_map[v];
      PLS_CHECK_MSG(p < lvl.hg.num_vertices(),
                    "level " << li << " parent out of range");
      wsum[p] += fine->vertex_weight(v);
      input_members[p] += (*fine_inputs)[v] ? 1 : 0;
    }
    for (VertexId g = 0; g < lvl.hg.num_vertices(); ++g) {
      PLS_CHECK_MSG(wsum[g] == lvl.hg.vertex_weight(g),
                    "level " << li << " globule " << g
                             << " weight mismatch: members sum to " << wsum[g]
                             << ", hypergraph says "
                             << lvl.hg.vertex_weight(g));
      PLS_CHECK_MSG(wsum[g] > 0, "level " << li << " empty globule " << g);
      PLS_CHECK_MSG(input_members[g] <= 1,
                    "level " << li << " globule " << g << " combines "
                             << input_members[g] << " primary inputs");
      PLS_CHECK_MSG((lvl.contains_input[g] != 0) == (input_members[g] == 1),
                    "level " << li << " globule " << g
                             << " contains_input flag inconsistent");
    }
    fine = &lvl.hg;
    fine_inputs = &lvl.contains_input;
  }
}

}  // namespace pls::hypergraph
