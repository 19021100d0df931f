#include "partition/coarsen.hpp"

#include <algorithm>
#include <numeric>
#include <span>

#include "util/check.hpp"
#include "util/rng.hpp"

namespace pls::partition {
namespace {

/// Internal working representation of one level: directed out-adjacency
/// (needed by fanout coarsening), vertex weights, flags.
struct WorkLevel {
  std::vector<std::uint32_t> vweight;
  std::vector<std::uint8_t> contains_input;
  std::vector<std::uint8_t> is_start;  ///< traversal roots for this level
  /// Directed out-edges with weights, one CSR row per vertex
  /// (out[off[v] .. off[v+1])), each target once per row.
  std::vector<std::uint32_t> off;
  std::vector<graph::Edge> out;

  std::size_t size() const noexcept { return vweight.size(); }
  std::span<const graph::Edge> row(std::uint32_t v) const {
    return {out.data() + off[v], off[v + 1] - off[v]};
  }
};

constexpr std::uint32_t kNone = ~std::uint32_t{0};

WorkLevel base_level(const circuit::Circuit& c,
                     const multilevel::VertexTrafficWeights* weights) {
  if (weights != nullptr) {
    PLS_CHECK_MSG(weights->vertex.size() == c.size() &&
                      weights->traffic.size() == c.size(),
                  "weights must cover every gate");
  }
  WorkLevel w;
  const auto n = c.size();
  if (weights != nullptr) {
    w.vweight.assign(weights->vertex.begin(), weights->vertex.end());
  } else {
    w.vweight.assign(n, 1);
  }
  w.contains_input.assign(n, 0);
  w.is_start.assign(n, 0);
  for (circuit::GateId pi : c.primary_inputs()) {
    w.contains_input[pi] = 1;
    w.is_start[pi] = 1;
  }
  // Row g lists g's fanout targets in first-occurrence order; a repeated
  // target adds to its entry, found through `at` (reset after each row).
  w.off.reserve(n + 1);
  w.off.push_back(0);
  w.out.reserve(c.num_edges());
  std::vector<std::uint32_t> at(n, kNone);
  for (circuit::GateId g = 0; g < n; ++g) {
    // Traffic scaling: a busy driver's signal is more expensive to cut, so
    // its edges weigh more and the coarsener keeps its fanout together
    // (paper §6 "activity levels of communication").
    const std::uint32_t base_weight =
        weights != nullptr ? weights->traffic[g] : 1;
    for (circuit::GateId t : c.fanouts(g)) {
      if (t == g) continue;
      if (at[t] == kNone) {
        at[t] = static_cast<std::uint32_t>(w.out.size());
        w.out.push_back(graph::Edge{t, base_weight});
      } else {
        w.out[at[t]].weight += base_weight;
      }
    }
    for (std::size_t i = w.off.back(); i < w.out.size(); ++i) {
      at[w.out[i].to] = kNone;
    }
    w.off.push_back(static_cast<std::uint32_t>(w.out.size()));
  }
  return w;
}

/// One round of the paper's fanout coarsening; returns the fine-vertex →
/// globule map and the globule count.
std::pair<std::vector<std::uint32_t>, std::size_t> fanout_round(
    const WorkLevel& lvl, std::uint64_t max_weight, util::Rng& rng) {
  const std::size_t n = lvl.size();
  std::vector<std::uint32_t> globule(n, kNone);
  std::vector<std::uint8_t> glob_has_input;  // indexed by globule id
  std::vector<std::uint64_t> glob_weight;    // indexed by globule id
  std::vector<std::uint8_t> visited(n, 0);
  std::uint32_t next_globule = 0;

  // A vertex *chosen* for coarsening forms a globule with every
  // still-unmerged vertex on its fanout; a vertex already absorbed into a
  // globule has been "coarsened once" this level and may not be chosen
  // again — the depth-first walk just continues through it.
  auto choose = [&](std::uint32_t v) {
    if (globule[v] != kNone) return;
    const std::uint32_t g = next_globule++;
    globule[v] = g;
    glob_has_input.push_back(lvl.contains_input[v]);
    glob_weight.push_back(lvl.vweight[v]);
    for (const graph::Edge& e : lvl.row(v)) {
      const std::uint32_t t = e.to;
      if (globule[t] != kNone) continue;           // coarsened once per level
      if (glob_has_input[g] && lvl.contains_input[t]) continue;  // PI rule
      if (max_weight != 0 && glob_weight[g] + lvl.vweight[t] > max_weight) {
        continue;  // weight cap: keep globules movable by refinement
      }
      globule[t] = g;
      glob_weight[g] += lvl.vweight[t];
      if (lvl.contains_input[t]) glob_has_input[g] = 1;
    }
  };

  // Depth-first traversal seeded by the level's start vertices (primary
  // inputs at level 0; previously-merged globules afterwards), then by every
  // remaining vertex so flip-flop islands and disconnected logic are
  // covered.  Start order is randomized: repeated runs with different seeds
  // explore different, equally legal coarsenings.
  std::vector<std::uint32_t> roots;
  roots.reserve(n);
  for (std::uint32_t v = 0; v < n; ++v) {
    if (lvl.is_start[v]) roots.push_back(v);
  }
  rng.shuffle(roots);
  for (std::uint32_t v = 0; v < n; ++v) roots.push_back(v);

  std::vector<std::uint32_t> stack;
  for (const std::uint32_t root : roots) {
    if (visited[root]) continue;
    stack.push_back(root);
    visited[root] = 1;
    while (!stack.empty()) {
      const std::uint32_t v = stack.back();
      stack.pop_back();
      choose(v);
      const auto row = lvl.row(v);
      for (auto it = row.rbegin(); it != row.rend(); ++it) {
        if (!visited[it->to]) {
          visited[it->to] = 1;
          stack.push_back(it->to);
        }
      }
    }
  }

  for (std::uint32_t v = 0; v < n; ++v) {
    if (globule[v] == kNone) {  // defensive: fallback roots cover everything
      globule[v] = next_globule++;
      glob_has_input.push_back(lvl.contains_input[v]);
    }
  }
  return {std::move(globule), next_globule};
}

/// Heavy-edge matching round (alternative scheme): visit vertices in random
/// order; match each unmatched vertex with the unmatched neighbour across
/// its heaviest incident edge, respecting the primary-input rule.
std::pair<std::vector<std::uint32_t>, std::size_t> heavy_edge_round(
    const WorkLevel& lvl, std::uint64_t max_weight, util::Rng& rng) {
  const std::size_t n = lvl.size();
  std::vector<std::uint32_t> globule(n, kNone);
  std::uint32_t next_globule = 0;

  // Both directions of every out-edge in one CSR, filled in ascending
  // source order: u→t lands in row u as itself and in row t as (u, w), so
  // each row keeps the order that breaks weight ties below.
  std::vector<std::uint32_t> nbr_off(n + 1, 0);
  for (std::uint32_t v = 0; v < n; ++v) {
    nbr_off[v + 1] += static_cast<std::uint32_t>(lvl.row(v).size());
    for (const graph::Edge& e : lvl.row(v)) ++nbr_off[e.to + 1];
  }
  for (std::size_t i = 1; i <= n; ++i) nbr_off[i] += nbr_off[i - 1];
  std::vector<graph::Edge> nbr(nbr_off[n]);
  std::vector<std::uint32_t> cursor(nbr_off.begin(), nbr_off.end() - 1);
  for (std::uint32_t v = 0; v < n; ++v) {
    for (const graph::Edge& e : lvl.row(v)) {
      nbr[cursor[v]++] = e;
      nbr[cursor[e.to]++] = graph::Edge{v, e.weight};
    }
  }

  std::vector<std::uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  rng.shuffle(order);

  for (std::uint32_t v : order) {
    if (globule[v] != kNone) continue;
    std::uint32_t best = kNone;
    std::uint32_t best_w = 0;
    for (std::uint32_t i = nbr_off[v]; i < nbr_off[v + 1]; ++i) {
      const graph::Edge& e = nbr[i];
      if (globule[e.to] != kNone) continue;
      if (lvl.contains_input[v] && lvl.contains_input[e.to]) continue;
      if (max_weight != 0 &&
          std::uint64_t{lvl.vweight[v]} + lvl.vweight[e.to] > max_weight) {
        continue;
      }
      if (e.weight > best_w) {
        best_w = e.weight;
        best = e.to;
      }
    }
    globule[v] = next_globule;
    if (best != kNone) globule[best] = next_globule;
    ++next_globule;
  }
  return {std::move(globule), next_globule};
}

/// Contract a level through `globule` into the next WorkLevel, filling in
/// the public CoarseLevel (symmetrized graph + parent map) on the way.
WorkLevel contract(const WorkLevel& fine,
                   const std::vector<std::uint32_t>& globule,
                   std::size_t num_globules, CoarseLevel* out_level) {
  WorkLevel coarse;
  coarse.vweight.assign(num_globules, 0);
  coarse.contains_input.assign(num_globules, 0);
  coarse.is_start.assign(num_globules, 0);

  std::vector<std::uint32_t> member_count(num_globules, 0);
  for (std::size_t v = 0; v < fine.size(); ++v) {
    const std::uint32_t g = globule[v];
    coarse.vweight[g] += fine.vweight[v];
    coarse.contains_input[g] |= fine.contains_input[v];
    ++member_count[g];
  }
  // Next level's traversal starts at globules formed by actual merging this
  // round ("coarsening starts from vertices that were just added to a
  // globule in the previous level").
  std::size_t merged = 0;
  for (std::size_t g = 0; g < num_globules; ++g) {
    if (member_count[g] >= 2) {
      coarse.is_start[g] = 1;
      ++merged;
    }
  }

  // The edge set of a coarse vertex is the union of its members' edges
  // (paper §3): self-loops dropped, parallel edges merged with summed
  // weight.  Rows are counted, filled at their offsets, then sorted by
  // target and merged in place.
  coarse.off.assign(num_globules + 1, 0);
  for (std::uint32_t v = 0; v < fine.size(); ++v) {
    const std::uint32_t gs = globule[v];
    for (const graph::Edge& e : fine.row(v)) {
      if (globule[e.to] != gs) ++coarse.off[gs + 1];
    }
  }
  for (std::size_t g = 1; g <= num_globules; ++g) {
    coarse.off[g] += coarse.off[g - 1];
  }
  coarse.out.resize(coarse.off[num_globules]);
  std::vector<std::uint32_t> cursor(coarse.off.begin(), coarse.off.end() - 1);
  for (std::uint32_t v = 0; v < fine.size(); ++v) {
    const std::uint32_t gs = globule[v];
    for (const graph::Edge& e : fine.row(v)) {
      const std::uint32_t gt = globule[e.to];
      if (gs != gt) coarse.out[cursor[gs]++] = graph::Edge{gt, e.weight};
    }
  }
  graph::merge_rows(coarse.off, coarse.out);

  if (out_level != nullptr) {
    out_level->graph =
        graph::WeightedGraph(coarse.vweight, coarse.off, coarse.out);
    out_level->parent_map = globule;
    out_level->contains_input = coarse.contains_input;
    out_level->merged_globules = merged;
  }
  return coarse;
}

}  // namespace

Hierarchy coarsen(const circuit::Circuit& c, const CoarsenOptions& opt) {
  PLS_CHECK_MSG(c.frozen(), "coarsen requires a frozen circuit");
  const std::size_t threshold = opt.threshold == 0 ? 64 : opt.threshold;
  util::Rng rng(opt.seed);

  Hierarchy h;
  WorkLevel cur = base_level(c, opt.weights);

  // Public G0 view (for final-level refinement).
  h.base = graph::WeightedGraph(cur.vweight, cur.off, cur.out);
  h.base_contains_input = cur.contains_input;

  while (h.levels.size() < opt.max_levels && cur.size() > threshold) {
    // Halt if every globule is an input globule: nothing legal remains to
    // combine (the paper's second stopping condition).
    const bool all_inputs =
        std::all_of(cur.contains_input.begin(), cur.contains_input.end(),
                    [](std::uint8_t b) { return b != 0; });
    if (all_inputs) break;

    auto [globule, count] =
        opt.scheme == CoarsenScheme::kFanout
            ? fanout_round(cur, opt.max_globule_weight, rng)
            : heavy_edge_round(cur, opt.max_globule_weight, rng);
    if (count == cur.size()) break;  // no merges happened; stuck

    CoarseLevel level;
    cur = contract(cur, globule, count, &level);
    h.levels.push_back(std::move(level));
  }
  return h;
}

}  // namespace pls::partition
