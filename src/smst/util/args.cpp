#include "smst/util/args.h"

#include <cctype>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace smst {

namespace {

// std::stoull happily parses "-1" (wrapping to 2^64-1), leading
// whitespace, "+5", and "0x10" — all of which silently turn user typos
// like `--seeds -1` into enormous values. A uint flag accepts plain
// decimal digits only.
bool IsPlainDecimal(const std::string& s) {
  if (s.empty()) return false;
  for (char c : s) {
    if (!std::isdigit(static_cast<unsigned char>(c))) return false;
  }
  return true;
}

}  // namespace

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
  if (!IsPlainDecimal(it->second)) {
    throw std::invalid_argument("--" + name + " expects an integer, got '" +
                                it->second + "'");
  }
  try {
    std::size_t pos = 0;
    const std::uint64_t v = std::stoull(it->second, &pos);
    if (pos != it->second.size()) {
      throw std::invalid_argument("");
    }
    return v;
  } catch (const std::exception&) {
    // All-digit strings can still overflow uint64 (std::out_of_range).
    throw std::invalid_argument("--" + name + " expects an integer, got '" +
                                it->second + "'");
  }
}

double ArgParser::GetDouble(const std::string& name, double fallback) const {
  used_[name] = true;
  auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  // std::stod accepts leading whitespace, "nan", "inf", and hex floats;
  // none of those is a sensible flag value, and a NaN probability poisons
  // every comparison downstream. Require the token to start with a digit,
  // '-', or '.', and the parsed value to be finite.
  const std::string& text = it->second;
  const auto bad = [&]() -> std::invalid_argument {
    return std::invalid_argument("--" + name + " expects a number, got '" +
                                 text + "'");
  };
  if (text.empty()) throw bad();
  const char first = text.front();
  if (!std::isdigit(static_cast<unsigned char>(first)) && first != '-' &&
      first != '.') {
    throw bad();
  }
  try {
    std::size_t pos = 0;
    const double v = std::stod(text, &pos);
    if (pos != text.size() || !std::isfinite(v)) throw bad();
    return v;
  } catch (const std::invalid_argument&) {
    throw bad();
  } catch (const std::out_of_range&) {
    throw bad();
  }
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
