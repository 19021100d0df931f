#include "framework/partition_cache.hpp"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

namespace pls::framework {
namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;
constexpr char kMagic[] = "plspart1";

struct Fnv {
  std::uint64_t h = kFnvOffset;
  void mix(std::uint64_t v) noexcept {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xFF;
      h *= kFnvPrime;
    }
  }
  void mix_str(const std::string& s) noexcept {
    mix(s.size());
    for (unsigned char ch : s) {
      h ^= ch;
      h *= kFnvPrime;
    }
  }
  /// Doubles carry real configuration (balance tolerance); hash the bit
  /// pattern — the values are written once in code, never computed.
  void mix_double(double d) noexcept {
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(d));
    std::memcpy(&bits, &d, sizeof(bits));
    mix(bits);
  }
};

std::filesystem::path cache_path(const std::string& dir, std::uint64_t key) {
  char name[32];
  std::snprintf(name, sizeof(name), "%016llx.part",
                static_cast<unsigned long long>(key));
  return std::filesystem::path(dir) / name;
}

}  // namespace

std::uint64_t circuit_structure_hash(const circuit::Circuit& c) {
  Fnv f;
  f.mix(c.size());
  for (circuit::GateId g = 0; g < c.size(); ++g) {
    f.mix(static_cast<std::uint64_t>(c.type(g)));
    f.mix(c.is_output(g) ? 1 : 0);
    const auto fi = c.fanins(g);
    f.mix(fi.size());
    for (circuit::GateId in : fi) f.mix(in);
  }
  return f.h;
}

std::uint64_t partition_cache_key(const circuit::Circuit& c, std::uint32_t k,
                                  const std::string& strategy,
                                  std::uint64_t seed,
                                  const partition::MultilevelOptions& opts,
                                  const multilevel::VertexTrafficWeights*
                                      weights) {
  Fnv f;
  f.mix(circuit_structure_hash(c));
  f.mix(k);
  f.mix_str(strategy);
  f.mix(seed);
  f.mix(opts.coarsen_threshold);
  f.mix(static_cast<std::uint64_t>(opts.scheme));
  f.mix(static_cast<std::uint64_t>(opts.refiner));
  f.mix_double(opts.balance_tol);
  if (weights != nullptr && !weights->uniform()) {
    // Activity-guided runs: the assignment is a function of the exact
    // weight vectors, so the key must be too (a re-profiled run with
    // different activity must miss).
    f.mix(weights->vertex.size());
    for (std::uint32_t w : weights->vertex) f.mix(w);
    f.mix(weights->traffic.size());
    for (std::uint32_t w : weights->traffic) f.mix(w);
  } else {
    f.mix(0);  // unweighted (or weights that cannot change the outcome)
  }
  return f.h;
}

bool partition_cache_load(const std::string& dir, std::uint64_t key,
                          std::uint32_t k, std::size_t n,
                          partition::Partition* out) {
  std::ifstream in(cache_path(dir, key));
  if (!in) return false;
  std::string magic;
  std::uint64_t file_key = 0;
  std::uint32_t file_k = 0;
  std::size_t file_n = 0;
  if (!(in >> magic >> std::hex >> file_key >> std::dec >> file_k >>
        file_n)) {
    return false;
  }
  if (magic != kMagic || file_key != key || file_k != k || file_n != n) {
    return false;
  }
  partition::Partition p;
  p.k = k;
  p.assign.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::uint32_t node = 0;
    if (!(in >> node) || node >= k) return false;  // truncated / corrupt
    p.assign[i] = node;
  }
  *out = std::move(p);
  return true;
}

void partition_cache_store(const std::string& dir, std::uint64_t key,
                           const partition::Partition& p) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return;
  // Write-then-rename so a concurrent reader never sees a partial file.
  const std::filesystem::path final_path = cache_path(dir, key);
  std::filesystem::path tmp = final_path;
  tmp += ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) return;
    out << kMagic << ' ' << std::hex << key << std::dec << ' ' << p.k << ' '
        << p.assign.size() << '\n';
    for (std::size_t i = 0; i < p.assign.size(); ++i) {
      out << p.assign[i] << ((i + 1) % 32 == 0 ? '\n' : ' ');
    }
    out << '\n';
    if (!out) return;
  }
  std::filesystem::rename(tmp, final_path, ec);
  if (ec) std::filesystem::remove(tmp, ec);
}

}  // namespace pls::framework
