#include "lexer.h"

#include <cctype>

namespace smst_lint {
namespace {

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

// Matches the encoding-prefix identifiers that may precede a raw string:
// R, uR, UR, LR, u8R.
bool IsRawStringPrefix(std::string_view ident) {
  return ident == "R" || ident == "uR" || ident == "UR" || ident == "LR" ||
         ident == "u8R";
}

// Parses `smst-lint-disable(...)` / `smst-lint-disable-next-line(...)`
// directives out of a comment's text and records them against `line` (or
// line + 1 for the next-line form).
void CollectDirectives(std::string_view comment, std::uint32_t line,
                       Suppressions& out) {
  static constexpr std::string_view kTag = "smst-lint-disable";
  std::size_t pos = 0;
  while ((pos = comment.find(kTag, pos)) != std::string_view::npos) {
    std::size_t cursor = pos + kTag.size();
    std::uint32_t target = line;
    static constexpr std::string_view kNext = "-next-line";
    if (comment.substr(cursor, kNext.size()) == kNext) {
      cursor += kNext.size();
      target = line + 1;
    }
    pos = cursor;
    if (cursor >= comment.size() || comment[cursor] != '(') continue;
    std::size_t close = comment.find(')', cursor);
    if (close == std::string_view::npos) continue;
    std::string_view list = comment.substr(cursor + 1, close - cursor - 1);
    std::string rule;
    for (std::size_t i = 0; i <= list.size(); ++i) {
      if (i == list.size() || list[i] == ',') {
        if (!rule.empty()) out.Add(target, rule);
        rule.clear();
      } else if (!std::isspace(static_cast<unsigned char>(list[i]))) {
        rule.push_back(list[i]);
      }
    }
    pos = close;
  }
}

}  // namespace

LexedFile Lex(std::string path, std::string_view src) {
  LexedFile out;
  out.path = std::move(path);

  // Split raw lines up front (baseline keys want the original text).
  {
    std::string cur;
    for (char c : src) {
      if (c == '\n') {
        out.lines.push_back(cur);
        cur.clear();
      } else if (c != '\r') {
        cur.push_back(c);
      }
    }
    out.lines.push_back(cur);
  }

  std::size_t i = 0;
  const std::size_t n = src.size();
  std::uint32_t line = 1;
  bool at_line_start = true;  // only whitespace seen since the last newline

  auto push = [&](Token::Kind kind, std::string text) {
    out.tokens.push_back(Token{kind, std::move(text), line});
  };

  while (i < n) {
    char c = src[i];

    if (c == '\n') {
      ++line;
      ++i;
      at_line_start = true;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }

    // Preprocessor line (with backslash continuations).
    if (c == '#' && at_line_start) {
      while (i < n) {
        if (src[i] == '\\' && i + 1 < n && src[i + 1] == '\n') {
          ++line;
          i += 2;
          continue;
        }
        if (src[i] == '\n') break;  // newline handled by the main loop
        ++i;
      }
      continue;
    }
    at_line_start = false;

    // Comments.
    if (c == '/' && i + 1 < n && src[i + 1] == '/') {
      std::size_t start = i + 2;
      while (i < n && src[i] != '\n') ++i;
      CollectDirectives(src.substr(start, i - start), line, out.suppressions);
      continue;
    }
    if (c == '/' && i + 1 < n && src[i + 1] == '*') {
      const std::uint32_t comment_line = line;
      std::size_t start = i + 2;
      i += 2;
      while (i + 1 < n && !(src[i] == '*' && src[i + 1] == '/')) {
        if (src[i] == '\n') ++line;
        ++i;
      }
      std::size_t end = (i + 1 < n) ? i : n;
      CollectDirectives(src.substr(start, end - start), comment_line,
                        out.suppressions);
      i = (i + 1 < n) ? i + 2 : n;
      continue;
    }

    // Identifier (possibly a raw-string prefix).
    if (IsIdentStart(c)) {
      std::size_t start = i;
      while (i < n && IsIdentChar(src[i])) ++i;
      std::string ident(src.substr(start, i - start));
      if (i < n && src[i] == '"' && IsRawStringPrefix(ident)) {
        // Raw string: R"delim( ... )delim"
        const std::uint32_t open_line = line;
        ++i;  // consume the opening quote
        std::string delim;
        while (i < n && src[i] != '(') delim.push_back(src[i++]);
        if (i < n) ++i;  // consume '('
        const std::string closer = ")" + delim + "\"";
        std::size_t end = src.find(closer, i);
        if (end == std::string_view::npos) end = n;
        for (std::size_t j = i; j < end && j < n; ++j) {
          if (src[j] == '\n') ++line;
        }
        i = (end == n) ? n : end + closer.size();
        out.tokens.push_back(
            Token{Token::Kind::kString, "<raw-string>", open_line});
        continue;
      }
      push(Token::Kind::kIdent, std::move(ident));
      continue;
    }

    // Number (digit separators, hex, float suffixes all just consumed).
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '.' && i + 1 < n &&
         std::isdigit(static_cast<unsigned char>(src[i + 1])))) {
      std::size_t start = i;
      while (i < n && (IsIdentChar(src[i]) || src[i] == '\'' ||
                       src[i] == '.' ||
                       ((src[i] == '+' || src[i] == '-') && i > start &&
                        (src[i - 1] == 'e' || src[i - 1] == 'E' ||
                         src[i - 1] == 'p' || src[i - 1] == 'P')))) {
        ++i;
      }
      push(Token::Kind::kNumber, std::string(src.substr(start, i - start)));
      continue;
    }

    // String and character literals.
    if (c == '"' || c == '\'') {
      const char quote = c;
      const std::uint32_t open_line = line;
      ++i;
      while (i < n && src[i] != quote) {
        if (src[i] == '\\' && i + 1 < n) ++i;
        if (src[i] == '\n') ++line;  // unterminated; keep line counts sane
        ++i;
      }
      if (i < n) ++i;  // closing quote
      out.tokens.push_back(Token{Token::Kind::kString,
                                 quote == '"' ? "<string>" : "<char>",
                                 open_line});
      continue;
    }

    // Multi-character operators the rules care about.
    if (i + 1 < n) {
      std::string_view two = src.substr(i, 2);
      if (two == "::" || two == "<<" || two == ">>" || two == "->" ||
          two == "&&") {
        push(Token::Kind::kPunct, std::string(two));
        i += 2;
        continue;
      }
    }

    push(Token::Kind::kPunct, std::string(1, c));
    ++i;
  }
  return out;
}

}  // namespace smst_lint
