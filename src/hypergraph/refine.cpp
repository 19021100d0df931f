#include "hypergraph/refine.hpp"

#include <algorithm>
#include <limits>

#include "hypergraph/metrics.hpp"
#include "multilevel/balance.hpp"
#include "util/check.hpp"

namespace pls::hypergraph {
namespace {

using partition::PartId;

constexpr std::int64_t kMaxExcursion = 64;  ///< negative-gain bail-out

struct BucketEntry {
  VertexId v;
  std::uint32_t stamp;  ///< stale if != stamp[v]
};

/// Gain buckets: one vector per possible gain value, offset by the maximum
/// weighted degree so indices are non-negative.  Entries are invalidated
/// lazily via per-vertex stamps; a popped entry whose gain went stale is
/// re-inserted at its fresh gain, so stale positions cost extra pops but
/// never a wrong move.
class GainBuckets {
 public:
  explicit GainBuckets(std::int64_t max_gain)
      : offset_(max_gain), buckets_(2 * max_gain + 1), top_(-1) {}

  void clear() {
    for (auto& b : buckets_) b.clear();
    top_ = -1;
  }

  void push(std::int64_t gain, BucketEntry entry) {
    const auto idx = static_cast<std::size_t>(
        std::clamp<std::int64_t>(gain + offset_, 0,
                                 static_cast<std::int64_t>(buckets_.size()) -
                                     1));
    buckets_[idx].push_back(entry);
    top_ = std::max(top_, static_cast<std::int64_t>(idx));
  }

  /// Pop the entry with the highest bucket gain; false when empty.
  bool pop(BucketEntry* out, std::int64_t* gain) {
    while (top_ >= 0) {
      auto& b = buckets_[static_cast<std::size_t>(top_)];
      if (b.empty()) {
        --top_;
        continue;
      }
      *out = b.back();
      b.pop_back();
      *gain = top_ - offset_;
      return true;
    }
    return false;
  }

 private:
  std::int64_t offset_;
  std::vector<std::vector<BucketEntry>> buckets_;
  std::int64_t top_;
};

}  // namespace

HgRefineResult refine_fm(const Hypergraph& hg, partition::Partition& p,
                         const HgRefineOptions& opt) {
  p.validate(hg.num_vertices());
  const std::size_t n = hg.num_vertices();
  const std::uint32_t k = p.k;

  HgRefineResult res;
  if (k < 2 || n == 0) {
    res.lambda_before = connectivity_minus_one(hg, p);
    res.lambda_after = res.lambda_before;
    return res;
  }

  const Hypergraph::Csr csr = hg.csr();
  std::int64_t max_degw = 1;
  for (VertexId v = 0; v < n; ++v) {
    max_degw = std::max(max_degw,
                        static_cast<std::int64_t>(hg.weighted_degree(v)));
  }
  PLS_CHECK_MSG(max_degw <= std::numeric_limits<std::uint32_t>::max(),
                "weighted degree " << max_degw
                                   << " overflows the 32-bit FM gain table");

  // Φ(e,q): pins of net e in part q, and the conn/freed gain table built
  // from it (definitions in refine.hpp).  The spans give λ−1 on the way.
  std::vector<std::uint32_t> phi(hg.num_nets() * k, 0);
  std::vector<std::uint32_t> conn(n * k, 0);
  std::vector<std::uint32_t> freed(n, 0);
  std::vector<PartId> spanned;
  for (NetId e = 0; e < hg.num_nets(); ++e) {
    std::uint32_t* row = phi.data() + std::size_t{e} * k;
    spanned.clear();
    for (VertexId v : csr.pins(e)) {
      if (row[p.assign[v]]++ == 0) spanned.push_back(p.assign[v]);
    }
    const std::uint32_t w = csr.net_weight[e];
    res.lambda_before += std::uint64_t{w} * (spanned.size() - 1);
    if (w == 0) continue;  // weightless nets carry no gain
    for (VertexId u : csr.pins(e)) {
      for (PartId q : spanned) conn[std::size_t{u} * k + q] += w;
      if (row[p.assign[u]] == 1) freed[u] += w;
    }
  }
  res.lambda_after = res.lambda_before;

  std::vector<std::uint64_t> load(k, 0);
  for (VertexId v = 0; v < n; ++v) load[p.assign[v]] += csr.vertex_weight[v];
  const std::uint64_t limit =
      multilevel::balance_limit(hg.total_vertex_weight(), k, opt.balance_tol);

  // v's bucket key: its best λ−1 gain over the parts other than home,
  // freed − conn[home] + max_{q≠home} conn[q].  Masking the home column to
  // 0 leaves that max, since entries are >= 0 and k >= 2.
  auto fresh_key = [&](VertexId v) -> std::int64_t {
    const PartId home = p.assign[v];
    const std::uint32_t* row = conn.data() + std::size_t{v} * k;
    std::uint32_t best = 0;
    for (PartId q = 0; q < k; ++q) {
      best = std::max(best, q == home ? 0u : row[q]);
    }
    return std::int64_t{freed[v]} - row[home] + best;
  };
  // Exact cache of fresh_key: a key depends only on the vertex's conn row,
  // its freed entry and its home part, so apply() updates it wherever it
  // changes one of those.
  std::vector<std::int64_t> key(n);
  for (VertexId v = 0; v < n; ++v) key[v] = fresh_key(v);

  // The part v moves to: best gain, then lightest part, then lowest id.
  // Its gain is key[v].  Never returns home, since k >= 2.
  auto best_target = [&](VertexId v) -> PartId {
    const PartId home = p.assign[v];
    const std::uint32_t* row = conn.data() + std::size_t{v} * k;
    PartId best = home;
    for (PartId q = 0; q < k; ++q) {
      if (q == home) continue;
      if (best == home || row[q] > row[best] ||
          (row[q] == row[best] && load[q] < load[best])) {
        best = q;
      }
    }
    PLS_DCHECK(std::int64_t{freed[v]} - row[home] + row[best] == key[v]);
    return best;
  };

  GainBuckets buckets(max_degw);
  std::vector<std::uint32_t> stamp(n, 0);
  std::vector<std::uint8_t> locked(n, 0);

  struct Move {
    VertexId v;
    PartId from;
    PartId to;
  };

  // The one pin of net e other than `skip` that sits in part q (the caller
  // knows Φ(e,q) counts exactly one such pin).
  auto sole_pin = [&](NetId e, PartId q, VertexId skip) {
    for (VertexId u : csr.pins(e)) {
      if (u != skip && p.assign[u] == q) return u;
    }
    PLS_CHECK_MSG(false, "Φ(e,q) out of sync with the assignment");
    return skip;
  };

  // Move v, keeping Φ, the gain table and the keys exact under the four
  // transition rules in refine.hpp.  v's own freed entry is rebuilt from
  // its nets' Φ(e,to) as it lands, and its key once it has landed.  Every
  // other pin u of a net whose span changed has neither `from` (Φ fell to
  // 0) nor `to` (Φ rose to 1) as its home, so its key moves only through
  // the max over its other parts: a raised column can only raise it, and a
  // lowered one needs a rescan only if it held the max.
  auto apply = [&](VertexId v, PartId from, PartId to) {
    std::uint32_t freed_v = 0;
    for (NetId e : csr.nets(v)) {
      std::uint32_t* row = phi.data() + std::size_t{e} * k;
      const std::uint32_t left = --row[from];
      const std::uint32_t joined = ++row[to];
      const std::uint32_t w = csr.net_weight[e];
      if (w == 0) continue;  // weightless nets carry no gain
      if (joined == 1) freed_v += w;
      if (left == 0 || joined == 1) {
        for (VertexId u : csr.pins(e)) {
          std::uint32_t* c = conn.data() + std::size_t{u} * k;
          if (left == 0) c[from] -= w;
          if (joined == 1) c[to] += w;
          if (u == v) continue;
          const std::int64_t base =
              std::int64_t{freed[u]} - c[p.assign[u]];
          if (left == 0 && key[u] - base == std::int64_t{c[from]} + w) {
            key[u] = fresh_key(u);
          } else if (joined == 1) {
            key[u] = std::max(key[u], base + c[to]);
          }
        }
      }
      if (left == 1) {
        const VertexId s = sole_pin(e, from, v);
        freed[s] += w;
        key[s] += w;
      }
      if (joined == 2) {
        const VertexId s = sole_pin(e, to, v);
        freed[s] -= w;
        key[s] -= w;
      }
    }
    freed[v] = freed_v;
    p.assign[v] = to;
    key[v] = fresh_key(v);
    load[from] -= csr.vertex_weight[v];
    load[to] += csr.vertex_weight[v];
  };

  for (std::uint32_t iter = 0; iter < opt.max_iters; ++iter) {
    ++res.iterations;

    buckets.clear();
    std::fill(locked.begin(), locked.end(), 0);
    for (VertexId v = 0; v < n; ++v) {
      PLS_DCHECK(key[v] == fresh_key(v));
      buckets.push(key[v], {v, stamp[v]});
    }

    std::vector<Move> log;
    std::int64_t cum = 0;
    std::int64_t best_cum = 0;
    std::size_t best_prefix = 0;

    BucketEntry top;
    std::int64_t bucket_gain;
    while (log.size() < n && buckets.pop(&top, &bucket_gain)) {
      if (top.stamp != stamp[top.v] || locked[top.v]) continue;  // stale
      const std::int64_t gain = key[top.v];
      if (gain != bucket_gain) {  // re-queue at the fresh gain
        ++stamp[top.v];
        buckets.push(gain, {top.v, stamp[top.v]});
        continue;
      }
      const PartId target = best_target(top.v);
      if (load[target] + csr.vertex_weight[top.v] > limit) continue;

      const PartId from = p.assign[top.v];
      apply(top.v, from, target);
      locked[top.v] = 1;
      log.push_back({top.v, from, target});
      cum += gain;
      if (cum > best_cum) {
        best_cum = cum;
        best_prefix = log.size();
      }
      if (cum < best_cum - kMaxExcursion) break;

      // Refresh pins of nets the move made (or un-made) critical: gains
      // change only when Φ(e,from) fell to 0/1 or Φ(e,to) rose to 1/2.
      for (NetId e : csr.nets(top.v)) {
        const std::uint32_t* row = phi.data() + std::size_t{e} * k;
        if (row[from] > 1 && row[target] > 2) continue;
        for (VertexId u : csr.pins(e)) {
          if (locked[u] || u == top.v) continue;
          ++stamp[u];
          buckets.push(key[u], {u, stamp[u]});
        }
      }
    }

    // Roll back to the best cumulative-gain prefix.
    for (std::size_t i = log.size(); i-- > best_prefix;) {
      apply(log[i].v, log[i].to, log[i].from);
    }
    res.moves += best_prefix;
    res.lambda_after -= static_cast<std::uint64_t>(best_cum);

    PLS_CHECK_MSG(res.lambda_after == connectivity_minus_one(hg, p),
                  "FM bookkeeping diverged from the λ−1 metric");
    if (best_cum == 0) break;  // pass found no improvement: converged
  }

  PLS_CHECK_MSG(res.lambda_after <= res.lambda_before,
                "hypergraph FM increased λ−1");
  return res;
}

}  // namespace pls::hypergraph
