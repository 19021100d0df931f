#include "util/cli.hpp"

#include <cstdio>
#include <sstream>

#include "util/check.hpp"

namespace pls::util {

Cli::Cli(std::string program_description)
    : description_(std::move(program_description)) {
  add_flag("help", "print this help text", "false");
}

void Cli::add_flag(const std::string& name, const std::string& help,
                   const std::string& default_value) {
  PLS_CHECK_MSG(!flags_.count(name), "duplicate flag --" << name);
  flags_[name] = Flag{help, default_value, default_value};
}

bool Cli::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    arg = arg.substr(2);
    std::string name = arg;
    std::optional<std::string> value;
    if (auto eq = arg.find('='); eq != std::string::npos) {
      name = arg.substr(0, eq);
      value = arg.substr(eq + 1);
    }
    auto it = flags_.find(name);
    if (it == flags_.end()) {
      std::fprintf(stderr, "unknown flag --%s\n%s", name.c_str(),
                   usage().c_str());
      return false;
    }
    if (!value) {
      // Boolean flags may omit the value; others consume the next token.
      const bool is_bool = it->second.default_value == "true" ||
                           it->second.default_value == "false";
      if (is_bool) {
        value = "true";
      } else if (i + 1 < argc) {
        value = argv[++i];
      } else {
        std::fprintf(stderr, "flag --%s needs a value\n", name.c_str());
        return false;
      }
    }
    it->second.value = *value;
  }
  if (get_bool("help")) {
    std::fprintf(stdout, "%s", usage().c_str());
    return false;
  }
  return true;
}

std::string Cli::get(const std::string& name) const {
  auto it = flags_.find(name);
  PLS_CHECK_MSG(it != flags_.end(), "unregistered flag --" << name);
  return it->second.value;
}

std::int64_t Cli::get_int(const std::string& name) const {
  const std::string v = get(name);
  std::size_t end = 0;
  std::int64_t x = 0;
  try {
    x = std::stoll(v, &end);
  } catch (const std::exception&) {
    end = 0;
  }
  if (end == 0 || end != v.size()) {
    throw FlagError("flag --" + name + " expects an integer, got '" + v +
                    "'");
  }
  return x;
}

std::uint64_t Cli::get_u64(const std::string& name, std::uint64_t lo,
                           std::uint64_t hi) const {
  const std::int64_t v = get_int(name);
  if (v < 0 || static_cast<std::uint64_t>(v) < lo ||
      static_cast<std::uint64_t>(v) > hi) {
    throw FlagError("--" + name + " must be in [" + std::to_string(lo) +
                    ", " + std::to_string(hi) + "], got " +
                    std::to_string(v));
  }
  return static_cast<std::uint64_t>(v);
}

double Cli::get_double(const std::string& name) const {
  const std::string v = get(name);
  std::size_t end = 0;
  double x = 0.0;
  try {
    x = std::stod(v, &end);
  } catch (const std::exception&) {
    end = 0;
  }
  if (end == 0 || end != v.size()) {
    throw FlagError("flag --" + name + " expects a number, got '" + v + "'");
  }
  return x;
}

double Cli::get_double(const std::string& name, double lo, double hi) const {
  const double v = get_double(name);
  if (!(v > lo && v <= hi)) {  // written so that NaN fails too
    std::ostringstream os;
    os << "--" << name << " must be in (" << lo << ", " << hi << "], got "
       << v;
    throw FlagError(os.str());
  }
  return v;
}

bool Cli::get_bool(const std::string& name) const {
  const std::string v = get(name);
  if (v == "true" || v == "1" || v == "yes" || v == "on") return true;
  if (v == "false" || v == "0" || v == "no" || v == "off") return false;
  throw FlagError("flag --" + name + " expects a boolean, got '" + v + "'");
}

std::string Cli::usage() const {
  std::ostringstream os;
  os << description_ << "\n\nflags:\n";
  for (const auto& [name, flag] : flags_) {
    os << "  --" << name << " (default: " << flag.default_value << ")\n      "
       << flag.help << '\n';
  }
  return os.str();
}

}  // namespace pls::util
