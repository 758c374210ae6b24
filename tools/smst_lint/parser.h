// smst_lint parser: brace-matched token trees and function extraction.
//
// Sits between the lexer (flat token stream) and the rule packs. It is
// still not a compiler front end — there is no preprocessor, no name
// lookup, no types — but it recovers the structure the v2 rules need:
//
//   * a bracket map: for every `{`/`(`/`[` the index of its matching
//     close token (and back), computed in one pass;
//   * function spans: body extents, the parameter-list extent, the
//     (heuristic) declared-return-type facts, coroutine-ness.
//
// Everything downstream (symtab.h, flow.h, rules.cpp) works on these
// spans instead of re-deriving them with local token scans.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

#include "lexer.h"

namespace smst_lint {

using Tokens = std::vector<Token>;

inline constexpr std::size_t kNoMatch = static_cast<std::size_t>(-1);

bool IsAnyOf(const Token& tok, std::initializer_list<std::string_view> set);

// Index of the token matching the opener/closer at `open`/`close`, using
// explicit open/close texts (e.g. "{" / "}"). Returns t.size() forward /
// 0 backward when unbalanced, matching the v1 helpers' conventions.
std::size_t MatchForward(const Tokens& t, std::size_t open,
                         std::string_view open_s, std::string_view close_s);
std::size_t MatchBackward(const Tokens& t, std::size_t close,
                          std::string_view open_s, std::string_view close_s);

// One function (or member-function) body found in the token stream.
struct Fn {
  std::string name;        // unqualified
  std::uint32_t line = 0;  // line of the body's `{`
  std::size_t params_begin = 0;  // index of the parameter list's `(`
  std::size_t params_end = 0;    // index of its `)`
  std::size_t body_begin = 0;    // index of `{`
  std::size_t body_end = 0;      // index of matching `}` (or tokens.size())
  bool returns_task = false;     // declared return type names Task<...>
  bool task_void = false;        // ... and the payload is void / empty
  bool has_co_await = false;
  bool has_co_return = false;
};

struct ParsedFile {
  const LexedFile* file = nullptr;
  // match[i] == index of the token closing the bracket opened at i, and
  // vice versa; kNoMatch for non-bracket or unbalanced tokens.
  std::vector<std::size_t> match;
  std::vector<Fn> fns;
};

ParsedFile Parse(const LexedFile& file);

}  // namespace smst_lint
