#include "parser.h"

namespace smst_lint {
bool IsAnyOf(const Token& tok, std::initializer_list<std::string_view> set) {
  for (std::string_view s : set) {
    if (tok.text == s) return true;
  }
  return false;
}

std::size_t MatchForward(const Tokens& t, std::size_t open,
                         std::string_view open_s, std::string_view close_s) {
  int depth = 0;
  for (std::size_t i = open; i < t.size(); ++i) {
    if (t[i].Is(open_s)) ++depth;
    if (t[i].Is(close_s) && --depth == 0) return i;
  }
  return t.size();
}

std::size_t MatchBackward(const Tokens& t, std::size_t close,
                          std::string_view open_s, std::string_view close_s) {
  int depth = 0;
  for (std::size_t i = close + 1; i-- > 0;) {
    if (t[i].Is(close_s)) ++depth;
    if (t[i].Is(open_s) && --depth == 0) return i;
  }
  return 0;
}

ParsedFile Parse(const LexedFile& file) {
  ParsedFile out;
  out.file = &file;
  const Tokens& t = file.tokens;

  // One-pass bracket map. Mismatched pairs (possible under heavy macro
  // use) simply stay kNoMatch; rules treat that as "no structure here".
  out.match.assign(t.size(), kNoMatch);
  std::vector<std::size_t> braces, parens, squares;
  for (std::size_t i = 0; i < t.size(); ++i) {
    std::vector<std::size_t>* stack = nullptr;
    bool close = false;
    if (t[i].Is("{")) {
      stack = &braces;
    } else if (t[i].Is("(")) {
      stack = &parens;
    } else if (t[i].Is("[")) {
      stack = &squares;
    } else if (t[i].Is("}")) {
      stack = &braces;
      close = true;
    } else if (t[i].Is(")")) {
      stack = &parens;
      close = true;
    } else if (t[i].Is("]")) {
      stack = &squares;
      close = true;
    }
    if (stack == nullptr) continue;
    if (!close) {
      stack->push_back(i);
    } else if (!stack->empty()) {
      out.match[stack->back()] = i;
      out.match[i] = stack->back();
      stack->pop_back();
    }
  }

  // Function extraction: a candidate body is a `{` preceded (modulo
  // cv/noexcept specifiers and constructor init lists) by `name(...)`.
  // Lambdas are excluded: their tokens stay inside the enclosing
  // function's span.
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (!t[i].Is("{")) continue;

    std::size_t j = i;
    while (j > 0 && IsAnyOf(t[j - 1], {"const", "noexcept", "override",
                                       "final", "mutable", "&", "&&"})) {
      --j;
    }
    if (j == 0 || !t[j - 1].Is(")")) continue;

    // Walk back through `) [: init-list]` to the parameter list of the
    // function itself.
    std::size_t close = j - 1;
    std::size_t name_idx = 0;
    std::size_t params_open = 0;
    while (true) {
      const std::size_t open = MatchBackward(t, close, "(", ")");
      if (open == 0) break;
      const Token& before = t[open - 1];
      if (before.kind != Token::Kind::kIdent) break;
      if (IsAnyOf(before, {"if", "for", "while", "switch", "catch", "return",
                           "co_await", "co_return", "sizeof", "alignof",
                           "noexcept", "new", "delete"})) {
        break;  // control flow / operator, not a function header
      }
      // Constructor init-list entry? Keep walking left.
      if (open >= 2 && (t[open - 2].Is(",") || t[open - 2].Is(":")) &&
          open >= 3 && t[open - 3].Is(")")) {
        close = open - 3;
        continue;
      }
      if (open >= 2 && (t[open - 2].Is(",") || t[open - 2].Is(":"))) {
        // `: member_(x) {` where the thing left of `:`/`,` is not `)` —
        // first init entry; hop over the `:` to the parameter list.
        std::size_t k = open - 2;
        while (k > 0 && !t[k].Is(":")) k = MatchBackward(t, k, "(", ")") - 1;
        if (k > 0 && t[k - 1].Is(")")) {
          close = k - 1;
          continue;
        }
      }
      name_idx = open - 1;
      params_open = open;
      break;
    }
    if (name_idx == 0) continue;

    Fn fn;
    fn.name = t[name_idx].text;
    fn.line = t[i].line;
    fn.params_begin = params_open;
    fn.params_end = out.match[params_open] != kNoMatch
                        ? out.match[params_open]
                        : MatchForward(t, params_open, "(", ")");
    fn.body_begin = i;
    fn.body_end =
        out.match[i] != kNoMatch ? out.match[i] : MatchForward(t, i, "{", "}");

    // Return type: scan left of the name for `Task <`.
    for (std::size_t k = name_idx; k-- > 0;) {
      const Token& tok = t[k];
      if (IsAnyOf(tok, {";", "}", "{", ")", "(", "public", "private",
                        "protected"})) {
        break;
      }
      if (tok.IsIdent("Task") && k + 1 < t.size() && t[k + 1].Is("<")) {
        fn.returns_task = true;
        fn.task_void =
            k + 2 < t.size() && (t[k + 2].Is("void") || t[k + 2].Is(">"));
        break;
      }
    }

    for (std::size_t k = fn.body_begin; k < fn.body_end; ++k) {
      if (t[k].IsIdent("co_await") || t[k].IsIdent("co_yield")) {
        fn.has_co_await = true;
      }
      if (t[k].IsIdent("co_return")) fn.has_co_return = true;
    }
    out.fns.push_back(std::move(fn));
  }
  return out;
}

}  // namespace smst_lint
