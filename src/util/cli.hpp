#pragma once
// Tiny command-line flag parser for the examples and bench harnesses.
// Supports --name=value, --name value, and boolean --flag forms; unknown
// flags are an error so typos in experiment scripts fail fast.

#include <cstdint>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace pls::util {

/// A flag value that does not parse or is out of range; what() is a
/// one-line message naming the flag, e.g. "--nodes must be in [1, 8], got 0".
class FlagError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Cli {
 public:
  Cli(std::string program_description);

  /// Register flags before parse(). `help` is printed by usage().
  void add_flag(const std::string& name, const std::string& help,
                const std::string& default_value);

  /// Parse argv. Returns false (after printing usage) on --help or error.
  bool parse(int argc, const char* const* argv);

  /// Typed reads; a malformed value throws FlagError.
  std::string get(const std::string& name) const;
  std::int64_t get_int(const std::string& name) const;
  double get_double(const std::string& name) const;
  bool get_bool(const std::string& name) const;
  /// Integer read checked against [lo, hi] before any unsigned cast, so a
  /// negative or overlarge value is a FlagError instead of wrapping.
  std::uint64_t get_u64(const std::string& name, std::uint64_t lo,
                        std::uint64_t hi) const;
  /// Number read checked against (lo, hi]: above lo, at most hi.  NaN and
  /// anything outside the range are a FlagError ("--scale must be in
  /// (0, 4], got 0"), so a caller may cast the value to a count.
  double get_double(const std::string& name, double lo, double hi) const;

  /// Positional arguments left over after flag parsing.
  const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

  std::string usage() const;

 private:
  struct Flag {
    std::string help;
    std::string value;
    std::string default_value;
  };
  std::string description_;
  std::map<std::string, Flag> flags_;
  std::vector<std::string> positional_;
};

}  // namespace pls::util
