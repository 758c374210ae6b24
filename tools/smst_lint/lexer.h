// smst_lint lexer: a minimal C++ tokenizer sufficient for rule scanning.
//
// It is not a compiler front end. It produces a flat token stream with
// line numbers and guarantees exactly the invariants the rule packs need:
//
//   * comments never produce tokens (but suppression directives inside
//     them are collected — see Suppressions),
//   * string literals (including raw strings R"delim(...)delim" and
//     encoding prefixes), character literals, and digit separators are
//     consumed correctly so their contents can never fake an identifier:
//     a literal's Token::text is a placeholder, so literal contents can
//     never collide with punctuation or identifier matching,
//   * preprocessor lines — with backslash continuations — are skipped
//     entirely (rules reason about code, not includes or macros),
//   * the multi-character operators the rules care about (`::`, `<<`,
//     `>>`, `->`, `&&`) are single tokens.
//
// Anything fancier (templates, overload resolution, actual types) is the
// analyzer's problem, solved heuristically; see parser.h / symtab.h /
// flow.h and the rule packs in rules.cpp.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace smst_lint {

struct Token {
  enum class Kind { kIdent, kNumber, kString, kPunct };
  Kind kind;
  std::string text;
  std::uint32_t line = 0;

  bool Is(std::string_view s) const { return text == s; }
  bool IsIdent(std::string_view s) const {
    return kind == Kind::kIdent && text == s;
  }
};

// Per-line rule suppressions gathered from comments:
//   // smst-lint-disable(rule-a,rule-b)      — this line
//   // smst-lint-disable-next-line(rule-a)   — the following line
// A rule list of `*` suppresses every rule on that line.
class Suppressions {
 public:
  void Add(std::uint32_t line, std::string rule) {
    by_line_[line].insert(std::move(rule));
  }
  bool Suppressed(std::uint32_t line, const std::string& rule) const {
    auto it = by_line_.find(line);
    if (it == by_line_.end()) return false;
    return it->second.count(rule) != 0 || it->second.count("*") != 0;
  }

 private:
  std::map<std::uint32_t, std::set<std::string>> by_line_;
};

struct LexedFile {
  std::string path;  // repo-relative, forward slashes
  std::vector<Token> tokens;
  Suppressions suppressions;
  std::vector<std::string> lines;  // raw source lines, for baseline keys
};

LexedFile Lex(std::string path, std::string_view source);

}  // namespace smst_lint
