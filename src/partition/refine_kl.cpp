// Pairwise Kernighan–Lin swap refinement (baseline; paper ref [13]).
//
// Classic KL operates on a bisection; for k-way partitions each iteration
// runs a KL pass on every pair of parts, whether or not the pair shares a
// cut edge (ROADMAP item 8: skipping those passes made KL no faster).
// Within a pair (A,B) the algorithm repeatedly selects the swap (x∈A, y∈B)
// with maximal gain D[x] + D[y] − 2·w(x,y), tentatively applies it, locks
// both vertices, and at the end of the pass commits only the prefix of
// swaps with the best cumulative gain (which may be the empty prefix).
// Candidate selection reads a bounded window from the top of each side's
// max-heap of D (ties by ascending vertex id), so a swap costs
// O(window · log n) plus the D updates around the two swapped vertices,
// and a pass O(|E| + swaps · window · log n).
//
// KL is a measured baseline: the paper (citing [12]) says greedy refinement
// cuts less in far less time; bench_refinement_ablation finds greedy faster
// but its k=8 cut 24–57% above KL's on the full-size stand-ins (item 8).

#include <algorithm>
#include <numeric>

#include "multilevel/balance.hpp"
#include "partition/metrics.hpp"
#include "partition/refine.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace pls::partition {
namespace {

constexpr std::size_t kCandidateWindow = 8;
constexpr std::size_t kMaxSwapsPerPass = 4000;

/// Signed KL gain contribution of vertex v w.r.t. the (a,b) pair:
/// D[v] = (weight to the other side) − (weight to its own side).
std::int64_t d_value(const graph::WeightedGraph& g, const Partition& p,
                     graph::VertexId v, PartId own, PartId other) {
  std::int64_t d = 0;
  for (const graph::Edge& e : g.neighbors(v)) {
    const PartId q = p.assign[e.to];
    if (q == other) d += e.weight;
    else if (q == own) d -= e.weight;
  }
  return d;
}

std::int64_t edge_weight_between(const graph::WeightedGraph& g,
                                 graph::VertexId x, graph::VertexId y) {
  for (const graph::Edge& e : g.neighbors(x)) {
    if (e.to == y) return e.weight;
  }
  return 0;
}

struct Swap {
  graph::VertexId x;
  graph::VertexId y;
  std::int64_t gain;
};

/// One side's unlocked vertices in (D ↓, id ↑) order: a max-heap with one
/// current entry per vertex.  An entry goes stale when its vertex locks or
/// its D changes (the per-vertex version moves on), and is dropped when it
/// surfaces.
class SideHeap {
 public:
  struct Entry {
    std::int64_t d;
    graph::VertexId v;
    std::uint32_t version;
  };

  void push(Entry e) {
    heap_.push_back(e);
    std::push_heap(heap_.begin(), heap_.end(), below);
  }

  /// Pop up to `n` current entries, best first, into `out`; the caller
  /// pushes them back once the swap is chosen.
  void pop_window(std::size_t n, const std::vector<std::uint8_t>& locked,
                  const std::vector<std::uint32_t>& version,
                  std::vector<Entry>& out) {
    out.clear();
    while (out.size() < n && !heap_.empty()) {
      const Entry top = heap_.front();
      std::pop_heap(heap_.begin(), heap_.end(), below);
      heap_.pop_back();
      if (!locked[top.v] && version[top.v] == top.version) out.push_back(top);
    }
  }

 private:
  static bool below(const Entry& l, const Entry& r) {
    return l.d != r.d ? l.d < r.d : l.v > r.v;
  }
  std::vector<Entry> heap_;
};

/// One KL pass on the pair (a,b).  Returns the committed gain (>= 0).
std::int64_t kl_pass(const graph::WeightedGraph& g, Partition& p,
                     std::vector<std::uint64_t>& load, std::uint64_t limit,
                     PartId a, PartId b, std::uint64_t* moves) {
  std::vector<std::int64_t> d(g.num_vertices(), 0);
  std::vector<std::uint8_t> locked(g.num_vertices(), 0);
  std::vector<std::uint32_t> version(g.num_vertices(), 0);
  SideHeap heap_a;
  SideHeap heap_b;
  std::size_t size_a = 0;
  std::size_t size_b = 0;
  for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
    const PartId q = p.assign[v];
    if (q != a && q != b) continue;
    d[v] = d_value(g, p, v, q, q == a ? b : a);
    (q == a ? heap_a : heap_b).push({d[v], v, 0});
    ++(q == a ? size_a : size_b);
  }
  if (size_a == 0 || size_b == 0) return 0;

  std::vector<Swap> log;
  std::int64_t cum = 0;
  std::int64_t best_cum = 0;
  std::size_t best_prefix = 0;

  std::vector<SideHeap::Entry> cand_a;
  std::vector<SideHeap::Entry> cand_b;
  const std::size_t max_swaps = std::min({size_a, size_b, kMaxSwapsPerPass});
  for (std::size_t step = 0; step < max_swaps; ++step) {
    // Best swap within the candidate window, balance-feasible.
    heap_a.pop_window(kCandidateWindow, locked, version, cand_a);
    heap_b.pop_window(kCandidateWindow, locked, version, cand_b);
    Swap best{0, 0, std::numeric_limits<std::int64_t>::min()};
    for (const SideHeap::Entry& ex : cand_a) {
      for (const SideHeap::Entry& ey : cand_b) {
        const graph::VertexId x = ex.v;
        const graph::VertexId y = ey.v;
        const std::int64_t gain =
            d[x] + d[y] - 2 * edge_weight_between(g, x, y);
        if (gain <= best.gain) continue;
        const std::uint64_t wx = g.vertex_weight(x);
        const std::uint64_t wy = g.vertex_weight(y);
        if (load[a] - wx + wy > limit || load[b] - wy + wx > limit) continue;
        best = Swap{x, y, gain};
      }
    }
    for (const SideHeap::Entry& e : cand_a) heap_a.push(e);
    for (const SideHeap::Entry& e : cand_b) heap_b.push(e);
    if (best.gain == std::numeric_limits<std::int64_t>::min()) break;

    // Tentatively apply; update D of unlocked neighbours on both sides.
    const auto apply = [&](const Swap& s, bool forward) {
      const PartId pa = forward ? b : a;
      const PartId pb = forward ? a : b;
      p.assign[s.x] = pa;
      p.assign[s.y] = pb;
      load[a] += g.vertex_weight(forward ? s.y : s.x);
      load[a] -= g.vertex_weight(forward ? s.x : s.y);
      load[b] += g.vertex_weight(forward ? s.x : s.y);
      load[b] -= g.vertex_weight(forward ? s.y : s.x);
    };
    apply(best, true);
    locked[best.x] = locked[best.y] = 1;
    for (const graph::VertexId s : {best.x, best.y}) {
      for (const graph::Edge& e : g.neighbors(s)) {
        const PartId q = p.assign[e.to];
        if (locked[e.to] || (q != a && q != b)) continue;
        const std::int64_t nd = d_value(g, p, e.to, q, q == a ? b : a);
        if (nd == d[e.to]) continue;
        d[e.to] = nd;
        (q == a ? heap_a : heap_b).push({nd, e.to, ++version[e.to]});
      }
    }

    log.push_back(best);
    cum += best.gain;
    if (cum > best_cum) {
      best_cum = cum;
      best_prefix = log.size();
    }
    // Heuristic early exit: deep negative excursions rarely recover.
    if (cum < best_cum - 4 * (std::abs(best_cum) + 16)) break;
  }

  // Roll back everything after the best prefix.
  for (std::size_t i = log.size(); i-- > best_prefix;) {
    const Swap& s = log[i];
    p.assign[s.x] = a;
    p.assign[s.y] = b;
    load[a] += g.vertex_weight(s.x);
    load[a] -= g.vertex_weight(s.y);
    load[b] += g.vertex_weight(s.y);
    load[b] -= g.vertex_weight(s.x);
  }
  if (moves != nullptr) *moves += 2 * best_prefix;
  return best_cum;
}

}  // namespace

RefineResult KernighanLinRefiner::refine(const graph::WeightedGraph& g,
                                         Partition& p,
                                         const RefineOptions& opt) const {
  p.validate(g.num_vertices());
  const std::uint32_t k = p.k;

  RefineResult res;
  res.cut_before = edge_cut(g, p);

  std::vector<std::uint64_t> load(k, 0);
  for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
    load[p.assign[v]] += g.vertex_weight(v);
  }
  const std::uint64_t limit =
      multilevel::balance_limit(g.total_vertex_weight(), k, opt.balance_tol);

  for (std::uint32_t iter = 0; iter < opt.max_iters; ++iter) {
    ++res.iterations;
    std::int64_t gain_this_iter = 0;
    for (PartId a = 0; a < k; ++a) {
      for (PartId b = a + 1; b < k; ++b) {
        gain_this_iter += kl_pass(g, p, load, limit, a, b, &res.moves);
      }
    }
    if (gain_this_iter == 0) break;
  }

  res.cut_after = edge_cut(g, p);
  PLS_CHECK_MSG(res.cut_after <= res.cut_before,
                "KL refinement increased the cut");
  return res;
}

}  // namespace pls::partition
