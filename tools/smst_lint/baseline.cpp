#include "baseline.h"

#include <cctype>
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string_view>

namespace smst_lint {
namespace {

constexpr std::string_view kHeader =
    "# smst_lint baseline — pre-existing findings that do not fail the "
    "build.\n"
    "# Format: path|rule-id|h:<FNV-1a 64 of the line text, whitespace "
    "stripped>.\n"
    "# Regenerate with\n"
    "#   smst_lint --write-baseline tools/smst_lint/baseline.txt\n"
    "# Entries match on line *content*, not line numbers, so edits "
    "elsewhere\n"
    "# in a file do not invalidate them.\n";

std::uint64_t Fnv1a64(std::string_view data) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : data) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string StripAllWhitespace(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (!std::isspace(static_cast<unsigned char>(c))) out.push_back(c);
  }
  return out;
}

std::string HashTag(std::string_view norm_text) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "h:%016llx",
                static_cast<unsigned long long>(
                    Fnv1a64(StripAllWhitespace(norm_text))));
  return buf;
}

bool IsHashTag(std::string_view rest) {
  if (rest.size() != 18 || rest.substr(0, 2) != "h:") return false;
  for (char c : rest.substr(2)) {
    if (!std::isxdigit(static_cast<unsigned char>(c))) return false;
  }
  return true;
}

}  // namespace

std::string Baseline::KeyFor(const Finding& f) {
  return f.file + "|" + f.rule + "|" + HashTag(f.norm_text);
}

Baseline Baseline::Parse(const std::string& text,
                         std::vector<std::string>* errors) {
  Baseline b;
  std::istringstream in(text);
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    std::size_t first = line.find_first_not_of(" \t");
    if (first == std::string::npos || line[first] == '#') continue;
    const std::size_t p1 = line.find('|');
    const std::size_t p2 =
        p1 == std::string::npos ? p1 : line.find('|', p1 + 1);
    if (p2 == std::string::npos || !IsHashTag(line.substr(p2 + 1))) {
      if (errors) {
        errors->push_back("baseline line " + std::to_string(lineno) +
                          ": expected path|rule|h:<16 hex digits>");
      }
      continue;
    }
    b.Insert(line);
  }
  return b;
}

std::string Baseline::Serialize() const {
  std::string out(kHeader);
  for (const std::string& key : keys_) {
    out += key;
    out += '\n';
  }
  return out;
}

}  // namespace smst_lint
