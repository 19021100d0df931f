#include "circuit/generator.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/check.hpp"
#include "util/rng.hpp"

namespace pls::circuit {
namespace {

using util::Rng;

GateType pick_type(const GeneratorSpec& s, Rng& rng) {
  const double w[8] = {s.frac_not, s.frac_buf, s.frac_nand, s.frac_and,
                       s.frac_nor, s.frac_or,  s.frac_xor,  s.frac_xnor};
  static constexpr GateType kTypes[8] = {
      GateType::kNot, GateType::kBuf, GateType::kNand, GateType::kAnd,
      GateType::kNor, GateType::kOr,  GateType::kXor,  GateType::kXnor};
  double total = 0;
  for (double x : w) total += x;
  double r = rng.uniform() * total;
  for (int i = 0; i < 8; ++i) {
    r -= w[i];
    if (r <= 0) return kTypes[i];
  }
  return GateType::kNand;
}

int pick_arity(GateType t, Rng& rng) {
  switch (t) {
    case GateType::kNot:
    case GateType::kBuf:
      return 1;
    case GateType::kXor:
    case GateType::kXnor:
      return 2;
    default: {
      // Mostly 2-input gates with a tail of 3- and 4-input ones, matching
      // the ISCAS'89 profile.
      const double r = rng.uniform();
      if (r < 0.70) return 2;
      if (r < 0.92) return 3;
      return 4;
    }
  }
}

/// Split `total` gates over `depth` levels with mild random variation and a
/// broad early-circuit bulge; every level gets at least one gate.
std::vector<std::size_t> level_sizes(std::size_t total, std::uint32_t depth,
                                     Rng& rng) {
  PLS_CHECK(depth >= 1);
  PLS_CHECK(total >= depth);
  std::vector<double> weight(depth);
  for (std::uint32_t l = 0; l < depth; ++l) {
    // Logic cones widen after the inputs and narrow toward the outputs:
    // triangular bulge peaking near 1/3 of the depth, with ±35% noise and a
    // hard taper over the last ranks (real netlists end in thin output
    // logic, and a thin top rank leaves almost nothing unobserved).
    const double x = static_cast<double>(l + 1) / static_cast<double>(depth);
    double bulge = x < 0.33 ? 0.4 + 1.8 * x : 1.0 - 0.55 * (x - 0.33);
    if (x > 0.9) bulge *= 0.25;
    weight[l] = bulge * (0.65 + 0.7 * rng.uniform());
  }
  const double wsum = std::accumulate(weight.begin(), weight.end(), 0.0);
  std::vector<std::size_t> sizes(depth, 1);
  std::size_t assigned = depth;
  for (std::uint32_t l = 0; l < depth && assigned < total; ++l) {
    const auto extra = std::min<std::size_t>(
        total - assigned,
        static_cast<std::size_t>(weight[l] / wsum *
                                 static_cast<double>(total - depth)));
    sizes[l] += extra;
    assigned += extra;
  }
  for (std::uint32_t l = 0; assigned < total; l = (l + 1) % depth) {
    ++sizes[l];
    ++assigned;
  }
  return sizes;
}

}  // namespace

Circuit generate(const GeneratorSpec& spec) {
  PLS_CHECK_MSG(spec.num_inputs >= 1, "need at least one primary input");
  PLS_CHECK_MSG(spec.num_comb_gates >= spec.num_outputs,
                "cannot mark more outputs than combinational gates");
  PLS_CHECK_MSG(spec.num_comb_gates >= 1, "need combinational gates");
  Rng rng(spec.seed);
  Circuit c(spec.name);

  // Consumer bookkeeping so we can wire up dangling gates at the end.
  // Pre-sized to the final gate count: it is read for gates that have no
  // consumers yet.
  std::vector<std::uint32_t> consumers(
      spec.num_inputs + spec.num_dffs + spec.num_comb_gates, 0);
  auto note_consumer = [&](GateId f) { ++consumers.at(f); };
  std::vector<std::uint32_t> fanin_count(consumers.size(), 0);

  // --- sources: primary inputs and flip-flops ------------------------------
  std::vector<GateId> sources;
  for (std::size_t i = 0; i < spec.num_inputs; ++i) {
    sources.push_back(c.add_input("pi" + std::to_string(i)));
  }
  std::vector<GateId> dffs;
  for (std::size_t i = 0; i < spec.num_dffs; ++i) {
    const GateId d = c.add_gate("ff" + std::to_string(i), GateType::kDff);
    dffs.push_back(d);
    sources.push_back(d);  // a DFF's Q output is a sequential source
  }

  // --- combinational levels -------------------------------------------------
  std::uint32_t depth = spec.depth;
  if (depth == 0) {
    // Depth grows with the log of gate count (s5378 ≈ 25, s15850 ≈ 50).
    depth = static_cast<std::uint32_t>(
        std::clamp(6.3 * std::log2(static_cast<double>(
                             std::max<std::size_t>(spec.num_comb_gates, 8))) -
                       46.0,
                   4.0, 64.0));
  }
  depth = static_cast<std::uint32_t>(std::min<std::size_t>(
      depth, std::max<std::size_t>(spec.num_comb_gates, 1)));

  const auto sizes = level_sizes(spec.num_comb_gates, depth, rng);

  // levels[0] holds the sources; levels[l>=1] the combinational ranks.
  std::vector<std::vector<GateId>> levels(depth + 1);
  levels[0] = sources;

  auto pick_from_level = [&](std::uint32_t lvl) -> GateId {
    const auto& pool = levels[lvl];
    if (rng.chance(spec.hub_bias)) return pool.front();  // the level's hub
    return pool[rng.below(pool.size())];
  };

  std::size_t gate_counter = 0;
  for (std::uint32_t l = 1; l <= depth; ++l) {
    levels[l].reserve(sizes[l - 1]);
    for (std::size_t i = 0; i < sizes[l - 1]; ++i) {
      const GateType t = pick_type(spec, rng);
      const int arity = pick_arity(t, rng);
      std::vector<GateId> fins;
      fins.reserve(static_cast<std::size_t>(arity));

      // First fanin comes from the immediately preceding level so the gate
      // really sits at level l (this pins the depth profile).
      fins.push_back(pick_from_level(l - 1));
      for (int a = 1; a < arity; ++a) {
        // Remaining fanins: geometric recency bias over lower levels.
        std::uint32_t lvl = l - 1;
        while (lvl > 0 && rng.chance(0.45)) --lvl;
        GateId f = pick_from_level(lvl);
        if (std::find(fins.begin(), fins.end(), f) != fins.end()) {
          f = pick_from_level(lvl);  // one retry to avoid duplicate fanin
        }
        fins.push_back(f);
      }
      for (GateId f : fins) note_consumer(f);
      const auto num_fins = static_cast<std::uint32_t>(fins.size());
      const GateId g = c.add_gate("g" + std::to_string(gate_counter++), t,
                                  std::move(fins));
      fanin_count[g] = num_fins;
      levels[l].push_back(g);
    }
  }

  // --- flip-flop D inputs: deep combinational gates (sequential feedback) ---
  {
    std::vector<GateId> deep;
    std::vector<std::uint32_t> level_of_deep;
    const std::uint32_t from =
        depth - std::min<std::uint32_t>(depth - 1, (depth + 2) / 3);
    for (std::uint32_t l = from; l <= depth; ++l) {
      deep.insert(deep.end(), levels[l].begin(), levels[l].end());
    }
    PLS_CHECK(!deep.empty());
    rng.shuffle(deep);
    level_of_deep.assign(c.size(), 0);
    for (std::uint32_t l = from; l <= depth; ++l) {
      for (GateId g : levels[l]) level_of_deep[g] = l;
    }
    // Prefer gates that do not yet drive anything, top level first: gates
    // at the deepest rank have no later logic to consume them, so flip-flop
    // feedback is their only chance of being observed.
    std::stable_sort(deep.begin(), deep.end(), [&](GateId a, GateId b) {
      const int rank_a =
          consumers[a] == 0 ? (level_of_deep[a] == depth ? 0 : 1) : 2;
      const int rank_b =
          consumers[b] == 0 ? (level_of_deep[b] == depth ? 0 : 1) : 2;
      return rank_a < rank_b;
    });
    for (std::size_t i = 0; i < dffs.size(); ++i) {
      const GateId src = deep[i % deep.size()];
      c.connect(dffs[i], src);
      note_consumer(src);
    }
  }

  // --- primary outputs: deep gates, preferring still-unobserved ones --------
  {
    std::vector<GateId> candidates;
    for (std::uint32_t l = depth; l >= 1; --l) {
      candidates.insert(candidates.end(), levels[l].begin(), levels[l].end());
      if (candidates.size() >= spec.num_outputs * 4 || l == 1) break;
    }
    rng.shuffle(candidates);
    std::stable_partition(candidates.begin(), candidates.end(),
                          [&](GateId g) { return consumers[g] == 0; });
    PLS_CHECK_MSG(candidates.size() >= spec.num_outputs,
                  "not enough gates to place primary outputs");
    for (std::size_t i = 0; i < spec.num_outputs; ++i) {
      c.mark_output(candidates[i]);
    }
  }

  // --- wire residual dangling gates into higher-level logic -----------------
  // Every remaining gate (or unused primary input / flip-flop output) with
  // no consumer and no OUTPUT marker becomes an extra fanin of a random
  // multi-input gate at a strictly higher level — legal, because it only
  // adds forward edges (and edges out of a DFF can never close a
  // combinational cycle).  Gates at the top level with no such target stay
  // dangling, as marking them as extra observers would change the output
  // count; the taper above keeps those to a handful.  A target that already
  // has max_arity fanins sends the gate on to the next level up, so a tiny
  // circuit with many sources leaves some dangling rather than overfill a
  // gate.
  {
    std::vector<std::vector<GateId>> multi_by_level(depth + 1);
    for (std::uint32_t l = 1; l <= depth; ++l) {
      for (GateId g : levels[l]) {
        const GateType t = c.type(g);
        if (t != GateType::kNot && t != GateType::kBuf &&
            t != GateType::kXor && t != GateType::kXnor) {
          multi_by_level[l].push_back(g);
        }
      }
    }
    for (std::uint32_t l = 0; l < depth; ++l) {
      for (GateId g : levels[l]) {
        if (consumers[g] != 0 || c.is_output(g)) continue;
        // Find a consumer level above l with at least one n-ary gate.
        for (std::uint32_t tl = l + 1; tl <= depth; ++tl) {
          if (multi_by_level[tl].empty()) continue;
          const GateId target =
              multi_by_level[tl][rng.below(multi_by_level[tl].size())];
          if (fanin_count[target] >=
              static_cast<std::uint32_t>(max_arity(c.type(target)))) {
            continue;
          }
          c.connect(target, g);
          ++fanin_count[target];
          note_consumer(g);
          break;
        }
      }
    }
  }

  c.freeze();
  return c;
}

GeneratorSpec iscas_spec(std::string_view which, std::uint64_t seed) {
  GeneratorSpec s;
  s.seed = seed;
  if (which == "s5378") {
    // Paper Table 1: 35 inputs, 2779 gates, 49 outputs; 179 DFFs in the
    // published netlist.  Depth ≈ 25.
    s.name = "s5378";
    s.num_inputs = 35;
    s.num_outputs = 49;
    s.num_comb_gates = 2779;
    s.num_dffs = 179;
    s.depth = 25;
  } else if (which == "s9234") {
    // Paper Table 1: 36 inputs, 5597 gates, 39 outputs; 211 DFFs.
    s.name = "s9234";
    s.num_inputs = 36;
    s.num_outputs = 39;
    s.num_comb_gates = 5597;
    s.num_dffs = 211;
    s.depth = 38;
  } else if (which == "s15850") {
    // Paper Table 1: 77 inputs, 10383 gates, 150 outputs; 534 DFFs.
    s.name = "s15850";
    s.num_inputs = 77;
    s.num_outputs = 150;
    s.num_comb_gates = 10383;
    s.num_dffs = 534;
    s.depth = 50;
  } else {
    PLS_CHECK_MSG(false, "unknown ISCAS'89 benchmark '"
                             << which
                             << "' (expected s5378, s9234 or s15850)");
  }
  return s;
}

Circuit make_iscas_like(std::string_view which, std::uint64_t seed) {
  return generate(iscas_spec(which, seed));
}

GeneratorSpec scale_spec(GeneratorSpec spec, double scale) {
  PLS_CHECK_MSG(scale > 0.0 && scale <= 4.0,
                "scale must be in (0, 4], got " << scale);
  auto scaled = [scale](std::size_t n) {
    return std::max<std::size_t>(
        4, static_cast<std::size_t>(static_cast<double>(n) * scale));
  };
  spec.num_comb_gates = scaled(spec.num_comb_gates);
  spec.num_dffs = scaled(spec.num_dffs);
  spec.num_inputs = std::max<std::size_t>(1, spec.num_inputs);
  spec.num_outputs = std::min(spec.num_outputs, spec.num_comb_gates / 4 + 1);
  return spec;
}

}  // namespace pls::circuit
