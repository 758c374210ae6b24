#include "rules.h"

#include <algorithm>
#include <cctype>
#include <map>
#include <set>
#include <string_view>

#include "flow.h"
#include "parser.h"
#include "symtab.h"

namespace smst_lint {

std::string NormalizeLine(const std::string& line) {
  std::string out;
  bool pending_space = false;
  for (char c : line) {
    if (std::isspace(static_cast<unsigned char>(c))) {
      pending_space = !out.empty();
      continue;
    }
    if (pending_space) out.push_back(' ');
    pending_space = false;
    out.push_back(c);
  }
  return out;
}

namespace {

// ---------------------------------------------------------------------------
// Path scoping. Rules that only make sense for protocol code key off the
// directory segment, not the full prefix, so the fixture corpus under
// tests/lint_fixtures/<segment>/ exercises them too.
// ---------------------------------------------------------------------------

bool HasDirSegment(std::string_view path, std::string_view segment) {
  std::size_t pos = 0;
  while ((pos = path.find(segment, pos)) != std::string_view::npos) {
    const bool left_ok = pos == 0 || path[pos - 1] == '/';
    const std::size_t end = pos + segment.size();
    const bool right_ok = end < path.size() && path[end] == '/';
    if (left_ok && right_ok) return true;
    pos = end;
  }
  return false;
}

// Protocol dirs: iteration order / container choice can leak into message
// contents and round behavior.
bool InProtocolDir(std::string_view path) {
  return HasDirSegment(path, "mst") || HasDirSegment(path, "sleeping") ||
         HasDirSegment(path, "lower_bounds") || HasDirSegment(path, "energy");
}

// Algorithm dirs: node programs live here; the simulator internals are off
// limits (the sleeping model's locality boundary).
bool InAlgoDir(std::string_view path) {
  return HasDirSegment(path, "mst") || HasDirSegment(path, "sleeping");
}

// Sharded-runtime dirs: the shard-* pack only applies where per-shard
// state and the exchange exist.
bool InShardedDir(std::string_view path) {
  return HasDirSegment(path, "sharded");
}

// ---------------------------------------------------------------------------
// Shared small detectors.
// ---------------------------------------------------------------------------

const std::set<std::string_view> kUnorderedTypes = {
    "unordered_map", "unordered_set", "unordered_multimap",
    "unordered_multiset"};

// Per-shard state that must never travel in a WireEntry: these objects are
// owned by one worker thread and poked without synchronization.
const std::set<std::string_view> kShardLocalTypes = {
    "Scheduler", "Metrics", "Auditor", "NodeMetrics", "Shard"};

bool IsMemberAccess(const Tokens& t, std::size_t i) {
  return i > 0 && (t[i - 1].Is(".") || t[i - 1].Is("->"));
}

bool IsFlatResumeMacro(const Token& tok) {
  return tok.IsIdent("SMST_FLAT_AWAKE") || tok.IsIdent("SMST_FLAT_SUB");
}

// ---------------------------------------------------------------------------
// The rule packs.
// ---------------------------------------------------------------------------

class Analysis {
 public:
  explicit Analysis(const LexedFile& file)
      : file_(file), t_(file.tokens), parsed_(Parse(file)) {
    symtabs_.reserve(parsed_.fns.size());
    for (const Fn& fn : parsed_.fns) {
      symtabs_.push_back(SymbolTable::Build(t_, parsed_, fn));
    }
  }

  std::vector<Finding> Run() {
    DeterminismPack();
    CongestPack();
    CoroutinePack();
    FlatPack();
    ShardPack();

    std::vector<Finding> out;
    for (Finding& f : findings_) {
      if (!file_.suppressions.Suppressed(f.line, f.rule)) {
        out.push_back(std::move(f));
      }
    }
    std::sort(out.begin(), out.end(), [](const Finding& a, const Finding& b) {
      return a.line != b.line ? a.line < b.line : a.rule < b.rule;
    });
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
  }

 private:
  std::string LineText(std::uint32_t line) const {
    if (line >= 1 && line <= file_.lines.size()) {
      return NormalizeLine(file_.lines[line - 1]);
    }
    return std::string();
  }

  void Flag(std::uint32_t line, std::string_view rule,
            std::string_view message) {
    findings_.push_back(Finding{file_.path, line, std::string(rule),
                                std::string(message), LineText(line)});
  }

  // Innermost function whose body contains token index `idx`; kNoMatch
  // when none.
  std::size_t EnclosingFn(std::size_t idx) const {
    std::size_t best = kNoMatch;
    for (std::size_t f = 0; f < parsed_.fns.size(); ++f) {
      const Fn& fn = parsed_.fns[f];
      if (fn.body_begin < idx && idx < fn.body_end &&
          (best == kNoMatch ||
           fn.body_begin > parsed_.fns[best].body_begin)) {
        best = f;
      }
    }
    return best;
  }

  std::size_t Close(std::size_t open, std::string_view o,
                    std::string_view c) const {
    return parsed_.match[open] != kNoMatch ? parsed_.match[open]
                                           : MatchForward(t_, open, o, c);
  }

  // --- determinism ------------------------------------------------------
  void DeterminismPack() {
    for (std::size_t i = 0; i < t_.size(); ++i) {
      const Token& tok = t_[i];
      if (tok.kind != Token::Kind::kIdent) continue;
      // A banned name preceded by a type-ish identifier is a declaration
      // (`int rand() ...` declares a member, it doesn't call libc).
      const bool declared =
          i > 0 && t_[i - 1].kind == Token::Kind::kIdent &&
          !IsAnyOf(t_[i - 1], {"return", "co_return", "co_await", "co_yield",
                               "else", "do", "case"});
      const bool called =
          i + 1 < t_.size() && t_[i + 1].Is("(") && !declared;

      if (called && !IsMemberAccess(t_, i) &&
          IsAnyOf(tok, {"rand", "srand", "rand_r", "drand48", "lrand48",
                        "mrand48", "random_shuffle"})) {
        Flag(tok.line, "det-rand",
             "C library randomness is seeded ambiently and breaks replay; "
             "use the run's Xoshiro256 (util/prng.h)");
      }
      if (tok.Is("random_device")) {
        Flag(tok.line, "det-random-device",
             "std::random_device draws entropy outside the run seed; derive "
             "streams with Xoshiro256::Split instead");
      }
      if (called && !IsMemberAccess(t_, i) &&
          IsAnyOf(tok, {"time", "clock", "gettimeofday", "clock_gettime",
                        "localtime", "gmtime", "mktime"})) {
        Flag(tok.line, "det-wall-clock",
             "wall-clock reads make runs irreproducible; simulation time is "
             "Scheduler rounds, bench timing belongs in bench/");
      }
      if (IsAnyOf(tok, {"system_clock", "steady_clock",
                        "high_resolution_clock", "utc_clock", "file_clock"}) &&
          i + 2 < t_.size() && t_[i + 1].Is("::") && t_[i + 2].IsIdent("now")) {
        Flag(tok.line, "det-wall-clock",
             "std::chrono clock reads make runs irreproducible; simulation "
             "time is Scheduler rounds, bench timing belongs in bench/");
      }
    }

    // Hash-order dataflow, per function (flow.h): iteration sources,
    // sort kills, assignment spread, read and protocol-escape sinks.
    const bool protocol_dir = InProtocolDir(file_.path);
    for (std::size_t f = 0; f < parsed_.fns.size(); ++f) {
      for (const FlowFinding& ff : UnorderedFlow(t_, parsed_, parsed_.fns[f],
                                                 symtabs_[f], protocol_dir)) {
        if (ff.kind == FlowFinding::Kind::kUnorderedIter) {
          Flag(ff.line, "det-unordered-iter",
               "hash-order iteration reaches '" + ff.detail +
                   "' without a sort; unordered iteration order varies "
                   "across libraries and ASLR — sort first, or suppress "
                   "with a note on why order is inert");
        } else {
          Flag(ff.line, "det-unordered-protocol",
               "value derived from unordered-container iteration escapes "
               "into the protocol surface through '" + ff.detail +
                   "'; hash order must not influence messages or round "
                   "behavior — sort before building protocol data");
        }
      }
    }

    // Pointer-valued keys in ordered or unordered associative containers.
    for (std::size_t i = 0; i + 1 < t_.size(); ++i) {
      if (t_[i].kind != Token::Kind::kIdent ||
          !IsAnyOf(t_[i], {"map", "set", "unordered_map", "unordered_set",
                           "multimap", "multiset"})) {
        continue;
      }
      if (!t_[i + 1].Is("<")) continue;
      int depth = 0;
      std::size_t last = 0;  // last meaningful token of the first argument
      for (std::size_t k = i + 1; k < t_.size(); ++k) {
        if (t_[k].Is("<")) ++depth;
        if (t_[k].Is(">") && --depth == 0) break;
        if (t_[k].Is(">>") && (depth -= 2) <= 0) break;
        if (t_[k].Is(",") && depth == 1) break;
        last = k;
      }
      if (last != 0 && t_[last].Is("*")) {
        Flag(t_[i].line, "det-pointer-key",
             "pointer values as container keys order by address, which ASLR "
             "randomizes run to run; key by index or ID instead");
      }
    }
  }

  // --- sleeping-model / CONGEST ----------------------------------------
  void CongestPack() {
    if (InAlgoDir(file_.path)) {
      for (const Token& tok : t_) {
        if (tok.kind == Token::Kind::kIdent &&
            IsAnyOf(tok, {"Scheduler", "Simulator", "SimulatorOptions"})) {
          Flag(tok.line, "congest-scheduler-access",
               "algorithm code may only touch the network through "
               "NodeContext::Awake/SendBatch; Scheduler/Simulator access "
               "belongs to driver entry points (baseline those)");
        }
      }
    }

    // Lane packing (the coloring's Pack4 idiom: fields ORed into 16-bit
    // lanes) without a width guard in the same function.
    for (const Fn& fn : parsed_.fns) {
      std::set<std::string> shifts;
      std::uint32_t first_line = 0;
      bool guarded = false;
      for (std::size_t k = fn.body_begin; k < fn.body_end; ++k) {
        if (t_[k].Is("<<") && k + 1 < fn.body_end &&
            t_[k + 1].kind == Token::Kind::kNumber &&
            IsAnyOf(t_[k + 1], {"16", "32", "48"})) {
          shifts.insert(t_[k + 1].text);
          if (first_line == 0) first_line = t_[k].line;
        }
        if (t_[k].kind == Token::Kind::kIdent &&
            IsAnyOf(t_[k], {"assert", "static_assert", "throw"})) {
          guarded = true;
        }
      }
      if (shifts.size() >= 2 && !guarded) {
        Flag(first_line, "congest-lane-pack",
             "packing multiple values into 16-bit lanes without a width "
             "guard; values wider than a lane silently corrupt neighbors — "
             "assert each value fits before packing");
      }
    }
  }

  // --- coroutine safety -------------------------------------------------
  void CoroutinePack() {
    for (std::size_t f = 0; f < parsed_.fns.size(); ++f) {
      const Fn& fn = parsed_.fns[f];
      if (fn.returns_task && !fn.task_void && fn.has_co_await &&
          !fn.has_co_return) {
        Flag(fn.line, "coro-missing-co-return",
             "value-returning Task coroutine never co_returns; flowing off "
             "the end of a non-void coroutine is undefined behavior");
      }
      if (!fn.has_co_await) continue;

      // By-reference lambda captures inside a coroutine. A *stored*
      // lambda (`auto f = [&]...`) can be called after any later
      // suspension, so it is always flagged. An inline lambda consumed by
      // the same statement (a sort comparator, an algorithm callback) is
      // only dangerous when that statement itself suspends.
      for (std::size_t k = fn.body_begin + 1; k < fn.body_end; ++k) {
        if (!t_[k].Is("[")) continue;
        if (k + 1 < fn.body_end && t_[k + 1].Is("[")) {  // [[attribute]]
          k = Close(k, "[", "]");
          continue;
        }
        // Subscript (`a[i]`, `](...)[0]`) vs lambda introducer.
        const Token& prev = t_[k - 1];
        const bool subscript = prev.kind == Token::Kind::kIdent
                                   ? !IsAnyOf(prev, {"return", "co_return",
                                                     "co_await", "co_yield"})
                                   : prev.Is("]") || prev.Is(")");
        const std::size_t close = Close(k, "[", "]");
        if (!subscript) {
          bool ref_capture = false;
          for (std::size_t m = k + 1; m < close; ++m) {
            if (t_[m].Is("&") || t_[m].Is("&&")) {
              ref_capture = true;
              break;
            }
          }
          if (ref_capture && prev.Is("=")) {
            Flag(t_[k].line, "coro-ref-capture",
                 "stored lambda captures by reference inside a coroutine; "
                 "if it is invoked after a suspension the captured frame "
                 "slots dangle — capture by value, or suppress with a note "
                 "that the lambda never crosses a co_await");
          } else if (ref_capture && StatementAwaits(fn, k, close)) {
            Flag(t_[k].line, "coro-ref-capture",
                 "by-reference lambda capture in a statement that "
                 "suspends; the lambda may run while the frame is parked — "
                 "capture by value, or suppress with a why-safe note");
          }
        }
        k = close;
      }

      // Address of a local escaping with a suspension still ahead inside
      // the local's scope.
      const SymbolTable& syms = symtabs_[f];
      for (std::size_t k = fn.body_begin + 1; k + 1 < fn.body_end; ++k) {
        if (!t_[k].Is("&")) continue;
        if (!IsAnyOf(t_[k - 1], {"=", "(", ",", "return"})) continue;
        const Token& target = t_[k + 1];
        if (target.kind != Token::Kind::kIdent) continue;
        if (k + 2 < t_.size() && t_[k + 2].Is("::")) continue;
        const Symbol* s = syms.LookupAt(target.text, k);
        if (s == nullptr || s->is_param) continue;
        const std::size_t horizon = std::min(s->scope_end, fn.body_end);
        for (std::size_t m = k + 1; m < horizon; ++m) {
          if (t_[m].IsIdent("co_await") || t_[m].IsIdent("co_yield")) {
            Flag(t_[k].line, "coro-local-addr",
                 "address of coroutine local '" + s->name +
                     "' escapes with a suspension still ahead in its "
                     "scope; if the consumer dereferences it while the "
                     "coroutine is parked the frame slot may be stale — "
                     "pass by value or suppress with a why-safe note");
            break;
          }
        }
      }
    }
  }

  // True when the statement containing the lambda at [open, close]
  // contains a co_await/co_yield outside the lambda's own body.
  bool StatementAwaits(const Fn& fn, std::size_t open,
                       std::size_t close) const {
    std::size_t begin = fn.body_begin + 1;
    for (std::size_t k = open; k-- > fn.body_begin + 1;) {
      if (t_[k].Is(";") || t_[k].Is("{") || t_[k].Is("}")) {
        begin = k + 1;
        break;
      }
    }
    // Lambda body: first `{` after the introducer (past any parameter
    // list); skip it when scanning for the statement's own awaits.
    std::size_t lam_open = close + 1;
    while (lam_open < fn.body_end && !t_[lam_open].Is("{") &&
           !t_[lam_open].Is(";")) {
      ++lam_open;
    }
    const std::size_t lam_close = lam_open < fn.body_end && t_[lam_open].Is("{")
                                      ? Close(lam_open, "{", "}")
                                      : lam_open;
    std::size_t end = lam_close;
    while (end < fn.body_end && !t_[end].Is(";")) ++end;
    for (std::size_t k = begin; k < end; ++k) {
      if (k >= lam_open && k <= lam_close) continue;
      if (t_[k].IsIdent("co_await") || t_[k].IsIdent("co_yield")) return true;
    }
    return false;
  }

  // --- flat lowering ----------------------------------------------------
  void FlatPack() {
    for (std::size_t i = 0; i + 1 < t_.size(); ++i) {
      if (!t_[i].IsIdent("switch") || !t_[i + 1].Is("(")) continue;
      const std::size_t hclose = Close(i + 1, "(", ")");
      if (hclose + 1 >= t_.size() || !t_[hclose + 1].Is("{")) continue;
      const std::size_t body = hclose + 1;
      const std::size_t bclose = Close(body, "{", "}");
      bool duff = false;
      for (std::size_t k = body + 1; k < bclose; ++k) {
        if (IsFlatResumeMacro(t_[k])) {
          duff = true;
          break;
        }
      }
      if (!duff) {
        i = hclose;  // keep scanning inside the body for nested switches
        continue;
      }
      AnalyzeDuffSwitch(i, body, bclose);
      i = hclose;
    }
  }

  // First token of the last top-level statement in [from, to); kNoMatch
  // when the span holds no statement.
  std::size_t LastStmtFirstToken(std::size_t from, std::size_t to) {
    std::size_t last_first = kNoMatch;
    bool expect = true;
    for (std::size_t k = from; k < to; ++k) {
      if (expect && !t_[k].Is(";")) {
        last_first = k;
        expect = false;
      }
      if (t_[k].Is("{")) {
        k = Close(k, "{", "}");
        expect = true;
        continue;
      }
      if (t_[k].Is("(")) {
        k = Close(k, "(", ")");
        continue;
      }
      if (t_[k].Is(";")) expect = true;
    }
    return last_first;
  }

  void AnalyzeDuffSwitch(std::size_t sw, std::size_t body,
                         std::size_t bclose) {
    // Top-level labels: `case X :` / `default :` at brace depth 0 inside
    // the switch body. Macro-generated `case __LINE__:` labels are
    // invisible (the lexer skips preprocessor output it never sees), so
    // the labels here are exactly the ones a human wrote.
    struct Label {
      std::size_t idx = 0;    // the `case`/`default` token
      std::size_t colon = 0;  // its `:`
      bool is_case0 = false;
    };
    std::vector<Label> labels;
    bool has_default = false;
    for (std::size_t k = body + 1; k < bclose; ++k) {
      if (t_[k].Is("{")) {
        k = Close(k, "{", "}");
        continue;
      }
      if (t_[k].Is("(")) {
        k = Close(k, "(", ")");
        continue;
      }
      if (t_[k].IsIdent("case")) {
        Label lb;
        lb.idx = k;
        lb.colon = k;
        while (lb.colon < bclose && !t_[lb.colon].Is(":")) ++lb.colon;
        lb.is_case0 = k + 1 < bclose && t_[k + 1].Is("0");
        labels.push_back(lb);
        k = lb.colon;
      } else if (t_[k].IsIdent("default") && k + 1 < bclose &&
                 t_[k + 1].Is(":")) {
        labels.push_back(Label{k, k + 1, false});
        has_default = true;
        k = k + 1;
      }
    }
    bool has_case0 = false;
    for (const Label& lb : labels) has_case0 |= lb.is_case0;
    if (!has_case0) {
      Flag(t_[sw].line, "flat-missing-case",
           "flat state-machine switch has no top-level `case 0:`; a fresh "
           "frame (pc == 0) would hit undefined dispatch — add the entry "
           "label");
    }
    if (!has_default) {
      Flag(t_[sw].line, "flat-missing-case",
           "flat state-machine switch has no `default:`; a corrupt pc "
           "must fail loudly (`default: throw ...`), not fall out of the "
           "switch");
    }

    // Fallthrough between consecutive top-level labels: the last
    // top-level statement before a label must be a terminator.
    for (std::size_t j = 0; j + 1 < labels.size(); ++j) {
      std::size_t last_first =
          LastStmtFirstToken(labels[j].colon + 1, labels[j + 1].idx);
      // A bare-block statement (`case 0: { ... }`) terminates iff its own
      // last statement does — descend instead of flagging the brace.
      while (last_first != kNoMatch && t_[last_first].Is("{")) {
        const std::size_t close = Close(last_first, "{", "}");
        if (close == kNoMatch || close <= last_first) break;
        last_first = LastStmtFirstToken(last_first + 1, close);
      }
      if (last_first == kNoMatch) continue;  // empty span: label grouping
      if (!IsAnyOf(t_[last_first],
                   {"return", "co_return", "throw", "break", "continue",
                    "goto"})) {
        Flag(t_[labels[j + 1].idx].line, "flat-fallthrough",
             "resume label reached by fallthrough: the previous label's "
             "code does not end in return/throw/break — states must not "
             "bleed into each other; terminate the span explicitly");
      }
    }

    // Locals declared inside the switch body but read after a resume
    // point: the frame is gone after the enclosing function returns, so
    // the read sees a fresh (reinitialized or stale) value.
    const std::size_t f = EnclosingFn(sw);
    if (f == kNoMatch) return;
    const SymbolTable& syms = symtabs_[f];
    std::vector<std::size_t> resumes;  // index past the macro call's `)`
    for (std::size_t k = body + 1; k < bclose; ++k) {
      if (!IsFlatResumeMacro(t_[k])) continue;
      if (k + 1 < bclose && t_[k + 1].Is("(")) {
        resumes.push_back(Close(k + 1, "(", ")"));
      } else {
        resumes.push_back(k);
      }
    }
    for (const Symbol& s : syms.All()) {
      if (s.is_param) continue;
      if (s.decl_index <= body || s.decl_index >= bclose) continue;
      std::size_t resume = kNoMatch;
      for (std::size_t r : resumes) {
        if (r > s.decl_index && r < s.scope_end) {
          resume = r;
          break;
        }
      }
      if (resume == kNoMatch) continue;
      const std::size_t horizon = std::min(s.scope_end, bclose);
      for (std::size_t k = resume + 1; k < horizon; ++k) {
        if (t_[k].kind != Token::Kind::kIdent || t_[k].text != s.name) {
          continue;
        }
        if (IsMemberAccess(t_, k)) continue;
        Flag(t_[k].line, "flat-local-across-resume",
             "local '" + s.name + "' (declared line " +
                 std::to_string(s.line) +
                 ") is read after a resume point; the C++ stack frame "
                 "does not survive the return — persist the value in the "
                 "flat state struct instead");
        break;
      }
    }
  }

  // --- sharded runtime --------------------------------------------------
  void ShardPack() {
    if (!InShardedDir(file_.path)) return;
    for (std::size_t f = 0; f < parsed_.fns.size(); ++f) {
      const Fn& fn = parsed_.fns[f];

      // Barrier ordering: within a function that synchronizes on the
      // round barrier, inbound drains must happen after the send barrier
      // and outbound pushes before it — otherwise one shard reads rings
      // another shard is still writing.
      std::vector<std::size_t> barriers;
      for (std::size_t k = fn.body_begin + 1; k < fn.body_end; ++k) {
        if (t_[k].kind == Token::Kind::kIdent &&
            IsAnyOf(t_[k], {"arrive_and_wait", "arrive_and_drop"})) {
          barriers.push_back(k);
        }
      }
      if (!barriers.empty()) {
        for (std::size_t k = fn.body_begin + 1; k < fn.body_end; ++k) {
          if (t_[k].kind != Token::Kind::kIdent || k + 1 >= fn.body_end ||
              !t_[k + 1].Is("(")) {
            continue;
          }
          if (t_[k].Is("DrainInto") && k < barriers.front()) {
            Flag(t_[k].line, "shard-barrier-order",
                 "DrainInto before the first round barrier: peers may "
                 "still be pushing into this ring — drain only after "
                 "arrive_and_wait");
          }
          if (t_[k].Is("Push") && k > barriers.back()) {
            Flag(t_[k].line, "shard-barrier-order",
                 "Push after the last round barrier: the receiving shard "
                 "may already be draining this ring — push before "
                 "arrive_and_wait");
          }
        }
      }

      // Shard-local state escaping into wire entries.
      const SymbolTable& syms = symtabs_[f];
      for (std::size_t k = fn.body_begin + 1; k + 1 < fn.body_end; ++k) {
        if (t_[k].kind != Token::Kind::kIdent) continue;
        std::size_t span_begin = kNoMatch, span_end = kNoMatch;
        if (t_[k].Is("WireEntry") && t_[k + 1].Is("{")) {
          span_begin = k + 1;  // WireEntry{...} temporary
          span_end = Close(span_begin, "{", "}");
        } else if (t_[k].Is("WireEntry") && k + 2 < fn.body_end &&
                   t_[k + 1].kind == Token::Kind::kIdent &&
                   t_[k + 2].Is("{")) {
          span_begin = k + 2;  // WireEntry e{...} declaration
          span_end = Close(span_begin, "{", "}");
        } else if (t_[k].Is("Push") && t_[k + 1].Is("(")) {
          span_begin = k + 1;
          span_end = Close(span_begin, "(", ")");
        } else {
          continue;
        }
        for (std::size_t m = span_begin + 1; m + 1 < span_end; ++m) {
          if (!t_[m].Is("&")) continue;
          if (!IsAnyOf(t_[m - 1], {"=", "(", ",", "{"})) continue;
          const Token& target = t_[m + 1];
          if (target.kind != Token::Kind::kIdent) continue;
          const Symbol* s = syms.LookupAt(target.text, m);
          if (s == nullptr || !kShardLocalTypes.count(s->type)) continue;
          Flag(t_[m].line, "shard-local-escape",
               "address of shard-local '" + s->name + "' (type " + s->type +
                   ") escapes into a wire entry; the receiving shard "
                   "would touch another worker's unsynchronized state — "
                   "send values, not pointers");
        }
        k = span_begin;  // idents inside the span may open nested spans
      }
    }
  }

  const LexedFile& file_;
  const Tokens& t_;
  ParsedFile parsed_;
  std::vector<SymbolTable> symtabs_;
  std::vector<Finding> findings_;
};

}  // namespace

const std::vector<RuleDesc>& AllRules() {
  static const std::vector<RuleDesc> kRules = {
      {"det-rand", "C library randomness (rand/srand/drand48/...)"},
      {"det-random-device", "std::random_device entropy outside the seed"},
      {"det-wall-clock", "wall-clock reads (time/clock/chrono ::now)"},
      {"det-unordered-iter",
       "hash-order iteration reaching a read without a sort"},
      {"det-unordered-protocol",
       "hash-order data escaping into the protocol surface "
       "(mst/sleeping/lower_bounds/energy)"},
      {"det-pointer-key", "pointer values used as associative-container keys"},
      {"congest-scheduler-access",
       "Scheduler/Simulator access from algorithm dirs (mst/sleeping)"},
      {"congest-lane-pack", "16-bit lane packing without a width guard"},
      {"coro-ref-capture", "by-reference lambda capture in a coroutine"},
      {"coro-missing-co-return",
       "value-returning Task coroutine without co_return"},
      {"coro-local-addr",
       "local address escaping with a suspension still ahead"},
      {"flat-missing-case",
       "flat state-machine switch without case 0 / default"},
      {"flat-fallthrough",
       "flat resume label reached by fallthrough from the previous state"},
      {"flat-local-across-resume",
       "flat state-machine local read across a resume point"},
      {"shard-barrier-order",
       "exchange Push/DrainInto on the wrong side of the round barrier"},
      {"shard-local-escape",
       "address of shard-local state escaping into a wire entry"},
  };
  return kRules;
}

std::vector<Finding> AnalyzeFile(const LexedFile& file) {
  return Analysis(file).Run();
}

}  // namespace smst_lint
