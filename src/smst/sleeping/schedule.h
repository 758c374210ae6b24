// Transmission-Schedule(root, u, n) — the paper's wake-up timetable.
//
// A schedule block spans 2n+1 consecutive rounds. Within a block starting
// at absolute round S, a node at distance `level` from its fragment root
// has five named rounds (paper §2.1 / Appendix B, relative rounds i, i+1,
// n+1, 2n-i+1, 2n-i+2):
//
//   Down-Receive       S + level - 1   (non-root only)
//   Down-Send          S + level
//   Side-Send-Receive  S + n
//   Up-Receive         S + 2n - level
//   Up-Send            S + 2n - level + 1   (non-root only)
//
// At level 0 these give the root's Down-Send = S, Side = S+n and
// Up-Receive = S+2n; the root has no parent to receive from or send to,
// so its Down-Receive and Up-Send are never read.
// Waking in a subset of these rounds pipelines information root-to-leaves
// (Down), leaves-to-root (Up), or across fragment boundaries (Side) in
// O(1) awake rounds and O(n) running time per block.
//
// The rounds are a few additions away from (S, level, span), so callers
// compute them where they wake instead of storing them: a sub-machine
// keeps one round and derives its neighbor (Down-Receive is the round
// before Down-Send, Up-Send the round after Up-Receive).
#pragma once

#include <cassert>
#include <cstdint>

#include "smst/runtime/scheduler.h"

namespace smst {

// Rounds per schedule block of span m. The span is the strict upper
// bound on node levels the block must accommodate: the paper always uses
// m = n (levels are < n), but any m > current max level works — the
// adaptive-blocks optimization shrinks early phases this way.
constexpr Round ScheduleBlockLength(std::size_t span) {
  return 2 * static_cast<Round>(span) + 1;
}

struct ScheduleRounds {
  Round down_receive = 0;  // meaningful iff level > 0
  Round down_send = 0;
  Round side = 0;
  Round up_receive = 0;
  Round up_send = 0;       // meaningful iff level > 0
};

// Absolute named rounds for a node at `level` within the block starting
// at `block_start`, with schedule span `span`. Precondition: level < span.
inline ScheduleRounds TransmissionSchedule(Round block_start,
                                           std::uint64_t level,
                                           std::size_t span) {
  assert(level < span);
  const Round s = block_start;
  const Round nn = static_cast<Round>(span);
  return ScheduleRounds{.down_receive = s + level - 1,
                        .down_send = s + level,
                        .side = s + nn,
                        .up_receive = s + 2 * nn - level,
                        .up_send = s + 2 * nn - level + 1};
}

// Hands out consecutive block start rounds. Every node of a run advances
// its own cursor through an identical sequence of procedure calls (and
// identical SetSpan updates), so all nodes agree on every block boundary
// without communication.
class BlockCursor {
 public:
  BlockCursor(Round first_round, std::size_t span)
      : next_(first_round), span_(span) {}

  // Returns the start round of the next block and advances past it.
  Round TakeBlock() {
    Round s = next_;
    next_ += ScheduleBlockLength(span_);
    return s;
  }

  // Advances past `count` blocks without using them (e.g. sleeping
  // through other fragments' coloring stages).
  void SkipBlocks(std::uint64_t count) {
    next_ += count * ScheduleBlockLength(span_);
  }

  // Changes the span of subsequent blocks (adaptive-blocks optimization;
  // must be applied identically by every node).
  void SetSpan(std::size_t span) { span_ = span; }
  std::size_t Span() const { return span_; }

  Round NextRound() const { return next_; }

 private:
  Round next_;
  std::size_t span_;
};

}  // namespace smst
