// smst_lint rule packs.
//
// Five packs, mirroring the project's correctness pillars (DESIGN.md §11
// and §14):
//
//   det-*      determinism: no wall clocks, no ambient randomness, no
//              hash-order dataflow reaching reads or the protocol surface
//              (flow.h), no pointer-valued keys.
//   congest-*  sleeping-model/CONGEST locality: algorithm code touches the
//              network only through NodeContext/Awake/SendBatch; lane
//              packing carries a width guard.
//   coro-*     coroutine safety: no dangerous lambda captures in
//              coroutines, no value-returning Task without co_return, no
//              local addresses escaping across a co_await.
//   flat-*     flat state-machine discipline for the Duff's-device
//              programs (runtime/flat/driver.h): no locals alive across a
//              resume point, no missing case 0 / default, no implicit
//              fallthrough between resume labels.
//   shard-*    sharded-runtime discipline: no shard-local state escaping
//              into wire entries, no exchange pushes/drains on the wrong
//              side of the round barrier.
//
// Every rule is a heuristic over the parsed token tree (parser.h) with a
// per-function symbol table (symtab.h) and, for the det dataflow rules, a
// linear statement-flow walk (flow.h) — precise enough to catch the
// project's actual failure modes, suppressible with
// `// smst-lint-disable(rule-id)` where a human has checked the site.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "lexer.h"

namespace smst_lint {

struct Finding {
  std::string file;
  std::uint32_t line = 0;
  std::string rule;
  std::string message;
  // Whitespace-collapsed text of the source line, captured at analysis
  // time — baseline keys hash this (baseline.h).
  std::string norm_text;
  bool baselined = false;

  bool operator==(const Finding&) const = default;
};

// Trims and collapses runs of whitespace to single spaces.
std::string NormalizeLine(const std::string& line);

struct RuleDesc {
  std::string_view id;
  std::string_view summary;
};

// All rules, for --list-rules and docs.
const std::vector<RuleDesc>& AllRules();

// Runs every single-TU rule pack over one lexed file. Findings are sorted
// by (line, rule) and already filtered through the file's inline
// suppressions; baseline filtering happens later (baseline.h).
std::vector<Finding> AnalyzeFile(const LexedFile& file);

}  // namespace smst_lint
