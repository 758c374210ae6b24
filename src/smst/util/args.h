// Minimal command-line flag parser for the CLI tool and examples.
// Supports --name value and --name=value, typed lookups with defaults,
// and unknown-flag detection.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace smst {

class ArgParser {
 public:
  // Parses argv; throws std::invalid_argument on malformed input
  // (non-flag tokens, a flag given twice in either form).
  ArgParser(int argc, const char* const* argv);

  bool Has(const std::string& name) const;

  std::string GetString(const std::string& name,
                        const std::string& fallback) const;
  std::uint64_t GetUint(const std::string& name, std::uint64_t fallback) const;
  // GetUint for a 32-bit setting (a shard or thread count): a value past
  // 2^32 - 1 is refused rather than wrapped.
  std::uint32_t GetUint32(const std::string& name,
                          std::uint32_t fallback) const;
  double GetDouble(const std::string& name, double fallback) const;
  bool GetBool(const std::string& name, bool fallback) const;

  // Flags that were provided but never looked up (typo detection).
  std::vector<std::string> UnusedFlags() const;

 private:
  std::map<std::string, std::string> values_;
  mutable std::map<std::string, bool> used_;
};

}  // namespace smst
