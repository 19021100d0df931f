#include "circuit/bench_io.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <optional>
#include <sstream>
#include <unordered_map>
#include <vector>

#include "util/check.hpp"

namespace pls::circuit {
namespace {

std::string upper(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::toupper(c); });
  return s;
}

// Whitespace test with '\r' spelled out: ISCAS archives ship CRLF .bench
// files and std::getline leaves the carriage return on every line, so the
// stripping here is load-bearing.  std::isspace covers '\r' too in the
// default locale; this explicit list keeps the guarantee independent of
// any future setlocale() and of char-sign UB.
bool is_space(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\n' || c == '\v' ||
         c == '\f';
}

std::string strip(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && is_space(s[b])) ++b;
  while (e > b && is_space(s[e - 1])) --e;
  return s.substr(b, e - b);
}

std::optional<GateType> gate_type_from(const std::string& kw) {
  const std::string k = upper(kw);
  if (k == "AND") return GateType::kAnd;
  if (k == "NAND") return GateType::kNand;
  if (k == "OR") return GateType::kOr;
  if (k == "NOR") return GateType::kNor;
  if (k == "XOR") return GateType::kXor;
  if (k == "XNOR") return GateType::kXnor;
  if (k == "NOT" || k == "INV") return GateType::kNot;
  if (k == "BUF" || k == "BUFF") return GateType::kBuf;
  if (k == "DFF" || k == "FF") return GateType::kDff;
  return std::nullopt;
}

/// An INPUT or OUTPUT declaration and the line it sits on.
struct Declaration {
  std::string name;
  int line;
};

struct PendingGate {
  std::string name;
  GateType type;
  std::vector<std::string> fanin_names;
  int line;
};

}  // namespace

Circuit parse_bench(std::istream& in, const std::string& name) {
  Circuit c(name);
  std::vector<Declaration> inputs;
  std::vector<Declaration> outputs;
  std::vector<PendingGate> pending;

  std::string raw;
  int lineno = 0;
  while (std::getline(in, raw)) {
    ++lineno;
    // Strip comments ('#' to end of line) and whitespace.
    if (auto hash = raw.find('#'); hash != std::string::npos) {
      raw.erase(hash);
    }
    const std::string line = strip(raw);
    if (line.empty()) continue;

    const auto lparen = line.find('(');
    const auto rparen = line.rfind(')');
    const auto eq = line.find('=');

    if (eq == std::string::npos) {
      // INPUT(x) or OUTPUT(x)
      if (lparen == std::string::npos || rparen == std::string::npos ||
          rparen < lparen) {
        throw BenchParseError(lineno, "expected INPUT(name) or OUTPUT(name)");
      }
      const std::string kw = upper(strip(line.substr(0, lparen)));
      const std::string arg =
          strip(line.substr(lparen + 1, rparen - lparen - 1));
      if (arg.empty()) throw BenchParseError(lineno, "empty signal name");
      if (kw == "INPUT") {
        inputs.push_back({arg, lineno});
      } else if (kw == "OUTPUT") {
        outputs.push_back({arg, lineno});
      } else {
        throw BenchParseError(lineno, "unknown declaration '" + kw + "'");
      }
      continue;
    }

    // name = TYPE(a, b, ...)
    if (lparen == std::string::npos || rparen == std::string::npos ||
        rparen < lparen || lparen < eq) {
      throw BenchParseError(lineno, "expected name = TYPE(a, b, ...)");
    }
    PendingGate g;
    g.name = strip(line.substr(0, eq));
    g.line = lineno;
    if (g.name.empty()) throw BenchParseError(lineno, "empty gate name");
    const std::string kw = strip(line.substr(eq + 1, lparen - eq - 1));
    const auto type = gate_type_from(kw);
    if (!type) {
      // BenchParseError prefixes the line number; name the gate too so a
      // bad line in a 10k-line netlist is findable either way.
      throw BenchParseError(lineno, "unknown gate type '" + kw +
                                        "' for gate '" + g.name + "'");
    }
    g.type = *type;

    std::string args = line.substr(lparen + 1, rparen - lparen - 1);
    std::stringstream ss(args);
    std::string tok;
    while (std::getline(ss, tok, ',')) {
      const std::string fanin = strip(tok);
      if (fanin.empty()) throw BenchParseError(lineno, "empty fanin name");
      g.fanin_names.push_back(fanin);
    }
    // Checked here rather than left to Circuit::freeze, which cannot know
    // the line a gate came from.
    const std::size_t arity = g.fanin_names.size();
    const auto lo = static_cast<std::size_t>(min_arity(g.type));
    const auto hi = static_cast<std::size_t>(max_arity(g.type));
    if (arity < lo || arity > hi) {
      const std::string allowed = lo == hi ? std::to_string(lo)
                                           : std::to_string(lo) + " to " +
                                                 std::to_string(hi);
      throw BenchParseError(lineno, "gate '" + g.name + "' (" +
                                        std::string(to_string(g.type)) +
                                        ") takes " + allowed +
                                        " fanins, got " +
                                        std::to_string(arity));
    }
    pending.push_back(std::move(g));
  }

  // Create vertices first (inputs, then gates) so forward references work.
  for (const Declaration& in : inputs) {
    if (c.find(in.name) != kInvalidGate) {
      throw BenchParseError(in.line, "duplicate INPUT '" + in.name + "'");
    }
    c.add_input(in.name);
  }
  for (const auto& g : pending) {
    if (c.find(g.name) != kInvalidGate) {
      throw BenchParseError(g.line, "signal '" + g.name + "' defined twice");
    }
    c.add_gate(g.name, g.type);
  }
  // Then connect fanins.
  for (const auto& g : pending) {
    const GateId id = c.find(g.name);
    for (const auto& fn : g.fanin_names) {
      const GateId f = c.find(fn);
      if (f == kInvalidGate) {
        throw BenchParseError(g.line, "gate '" + g.name +
                                          "' references undefined signal '" +
                                          fn + "'");
      }
      c.connect(id, f);
    }
  }
  for (const Declaration& out : outputs) {
    const GateId o = c.find(out.name);
    if (o == kInvalidGate) {
      throw BenchParseError(out.line, "OUTPUT references undefined signal '" +
                                          out.name + "'");
    }
    c.mark_output(o);
  }
  // Ids follow creation order — the inputs, then `pending` — and a cycle
  // runs through gates only (an input has no fanins).
  if (const GateId g = c.combinational_cycle_gate(); g != kInvalidGate) {
    const PendingGate& gate = pending[g - inputs.size()];
    throw BenchParseError(gate.line, "combinational cycle through gate '" +
                                         gate.name +
                                         "' not broken by a flip-flop");
  }

  try {
    c.freeze();
  } catch (const util::CheckError& e) {
    throw BenchParseError(0, std::string("netlist invalid: ") + e.what());
  }
  return c;
}

Circuit parse_bench_string(const std::string& text, const std::string& name) {
  std::istringstream in(text);
  return parse_bench(in, name);
}

Circuit parse_bench_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open .bench file: " + path);
  // Derive circuit name from filename (strip directories and extension).
  std::string name = path;
  if (auto slash = name.find_last_of('/'); slash != std::string::npos) {
    name = name.substr(slash + 1);
  }
  if (auto dot = name.find_last_of('.'); dot != std::string::npos) {
    name = name.substr(0, dot);
  }
  return parse_bench(in, name);
}

void write_bench(std::ostream& out, const Circuit& c) {
  out << "# " << c.name() << " — written by parlogsim\n";
  out << "# " << c.primary_inputs().size() << " inputs, "
      << c.primary_outputs().size() << " outputs, " << c.flip_flops().size()
      << " flip-flops, " << c.num_combinational() << " combinational gates\n";
  for (GateId g : c.primary_inputs()) {
    out << "INPUT(" << c.gate_name(g) << ")\n";
  }
  for (GateId g : c.primary_outputs()) {
    out << "OUTPUT(" << c.gate_name(g) << ")\n";
  }
  out << '\n';
  for (GateId g = 0; g < c.size(); ++g) {
    if (c.type(g) == GateType::kInput) continue;
    out << c.gate_name(g) << " = " << to_string(c.type(g)) << '(';
    const auto fins = c.fanins(g);
    for (std::size_t i = 0; i < fins.size(); ++i) {
      if (i) out << ", ";
      out << c.gate_name(fins[i]);
    }
    out << ")\n";
  }
}

std::string write_bench_string(const Circuit& c) {
  std::ostringstream os;
  write_bench(os, c);
  return os.str();
}

void write_bench_file(const std::string& path, const Circuit& c) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("cannot open for write: " + path);
  write_bench(out, c);
}

}  // namespace pls::circuit
