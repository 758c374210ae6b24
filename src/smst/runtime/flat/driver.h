// Duff's-device helpers for writing FlatProgram drivers and the toolbox
// sub-machines they call.
//
// A flat state machine keeps one per-node state struct with an integer
// `pc` and runs the whole algorithm script inside `switch (st.pc)`. The
// two macros below turn an awake round or a nested sub-machine into a
// (return, case-label) pair, so the script reads top to bottom like
// straight-line code:
//
//   switch (st.pc) {
//     default: throw std::logic_error("flat program: corrupt pc");
//     case 0:
//       ...
//       // one awake round (sends pushed just before):
//       SMST_FLAT_AWAKE(st, r);
//       ... use `inbox` ...
//       // a toolbox procedure run to completion:
//       SMST_FLAT_SUB(st, st.umin, st.umin.Begin(node, ..., sends));
//       ... use st.umin.best ...
//       return kFlatDone;
//   }
//
// Rules the call site must follow (C++ jump-into-scope rules):
//  - each macro invocation sits on its own source line (`__LINE__` is the
//    case key), inside the driver's `switch (st.pc)`, and `pc` is an
//    integer wide enough for every line of the file (the macros
//    static_assert it; the toolbox keeps a std::uint16_t);
//  - `node` (FlatNodeRef), `inbox` (std::span<const InMessage>) and
//    `sends` (SendLane&) are in scope at every invocation — SMST_FLAT_SUB
//    resumes the sub-machine with exactly those names;
//  - no local variable with an initializer may be in scope at a macro
//    invocation (jumping to its case label would skip the
//    initialization); persistent values live in the per-node struct,
//    scratch values in `{ ... }` blocks that contain no macro.
#pragma once

#include <limits>
#include <span>

#include "smst/runtime/flat/program.h"

namespace smst {

// The inbox a sub-machine's `case 0:` runs with: nothing arrives before
// its first wake. Every sub-machine's Begin passes this one.
inline constexpr std::span<const InMessage> kEmptyInbox{};

}  // namespace smst

// One awake round: push the round's sends first, then suspend until
// `round_expr` comes due; the next Step re-enters just after. It is one
// statement — the case label sits inside the do-while, as in Duff's
// device — so `if (c) SMST_FLAT_AWAKE(st, r);` suspends only when c
// holds.
#define SMST_FLAT_AWAKE(st, round_expr)                                  \
  do {                                                                   \
    static_assert(__LINE__ <=                                            \
                  std::numeric_limits<decltype((st).pc)>::max());        \
    (st).pc = __LINE__;                                                  \
    return (round_expr);                                                 \
    case __LINE__:;                                                      \
  } while (0)

// Run the sub-machine `sub` (an lvalue; sleeping/flat_procedures.h) to
// completion, forwarding each of its awake rounds as our own.
// `begin_call` is evaluated once; resumes go through `(sub).Resume(node,
// inbox, sends)`. `r_` is deliberately uninitialized: the case label
// jumps over its declaration, which is only legal for vacuous
// initialization.
#define SMST_FLAT_SUB(st, sub, begin_call)                               \
  do {                                                                   \
    static_assert(__LINE__ <=                                            \
                  std::numeric_limits<decltype((st).pc)>::max());        \
    ::smst::Round r_;                                                    \
    r_ = (begin_call);                                                   \
    while (r_ != ::smst::kFlatDone) {                                    \
      (st).pc = __LINE__;                                                \
      return r_;                                                         \
      case __LINE__:                                                     \
        r_ = (sub).Resume(node, inbox, sends);                           \
    }                                                                    \
  } while (0)
