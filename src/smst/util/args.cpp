#include "smst/util/args.h"

#include <limits>
#include <stdexcept>
#include <utility>

#include "smst/util/parse.h"

namespace smst {

ArgParser::ArgParser(int argc, const char* const* argv) {
  // A repeated flag is an error, not "last one wins": `--n 64 --n 128`
  // is almost always a pasted command line with a stale value in it.
  const auto set = [this](const std::string& name, std::string value) {
    if (!values_.emplace(name, std::move(value)).second) {
      throw std::invalid_argument("--" + name + " given more than once");
    }
  };
  for (int i = 1; i < argc; ++i) {
    std::string token = argv[i];
    if (token.rfind("--", 0) != 0 || token.size() <= 2) {
      throw std::invalid_argument("expected --flag, got '" + token + "'");
    }
    token = token.substr(2);
    const auto eq = token.find('=');
    if (eq != std::string::npos) {
      set(token.substr(0, eq), token.substr(eq + 1));
      continue;
    }
    // "--flag value" unless the next token is another flag (then it is a
    // boolean switch).
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      set(token, argv[++i]);
    } else {
      set(token, "true");
    }
  }
}

bool ArgParser::Has(const std::string& name) const {
  used_[name] = true;
  return values_.count(name) > 0;
}

std::string ArgParser::GetString(const std::string& name,
                                 const std::string& fallback) const {
  used_[name] = true;
  auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

std::uint64_t ArgParser::GetUint(const std::string& name,
                                 std::uint64_t fallback) const {
  used_[name] = true;
  auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  // Plain decimal digits only: "-1" must not wrap to 2^64-1, nor "0x10"
  // or "+5" pass as numbers (util/parse.h).
  const std::optional<std::uint64_t> v = ParseDecimalUint(it->second);
  if (!v) {
    throw std::invalid_argument("--" + name + " expects an integer, got '" +
                                it->second + "'");
  }
  return *v;
}

std::uint32_t ArgParser::GetUint32(const std::string& name,
                                   std::uint32_t fallback) const {
  const std::uint64_t v = GetUint(name, fallback);
  if (v > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument("--" + name +
                                " expects at most 4294967295, got " +
                                std::to_string(v));
  }
  return static_cast<std::uint32_t>(v);
}

double ArgParser::GetDouble(const std::string& name, double fallback) const {
  used_[name] = true;
  auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  // A finite decimal only: whitespace, '+', NaN, infinities and hex
  // floats are no sensible flag value, and a NaN probability poisons
  // every comparison downstream (util/parse.h).
  const std::optional<double> v = ParseFiniteDecimal(it->second);
  if (!v) {
    throw std::invalid_argument("--" + name + " expects a number, got '" +
                                it->second + "'");
  }
  return *v;
}

bool ArgParser::GetBool(const std::string& name, bool fallback) const {
  used_[name] = true;
  auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  if (it->second == "true" || it->second == "1") return true;
  if (it->second == "false" || it->second == "0") return false;
  throw std::invalid_argument("--" + name + " expects true/false");
}

std::vector<std::string> ArgParser::UnusedFlags() const {
  std::vector<std::string> unused;
  for (const auto& [name, value] : values_) {
    if (!used_.count(name)) unused.push_back(name);
  }
  return unused;
}

}  // namespace smst
