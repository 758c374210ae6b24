// Procedure Merging-Fragments(n) (paper §2.2, illustrated in Appendix C).
//
// Merges every "tails" fragment into the "heads" fragment at the far end
// of its merge edge, in O(1) awake rounds and O(n) running time, while
// restoring the LDT invariant of the merged fragment:
//
//   sub-block A (Side):   everyone exchanges (fragment ID, level) with
//                         neighbors; the tails attachment node u_T also
//                         raises an ATTACH flag on the merge edge, so the
//                         heads endpoint u_H learns it gains a child and
//                         u_T learns its new fragment ID and level.
//   sub-block B (Up):     first Transmission-Schedule instance — the new
//                         (fragment ID, level) values propagate from u_T
//                         along the old-tree path to the old root; each
//                         path node re-orients (its new parent is the
//                         child it heard from).
//   sub-block C (Down):   second instance — every remaining tails node
//                         with still-empty NEW values adopts its old
//                         parent's value + 1 (orientation unchanged).
//
// (The paper's prose says nodes with *non-empty* NEW-LEVEL-NUM update in
// the down pass; taken literally that would corrupt the path computed in
// sub-block B, and Appendix C's figures show the intent: only the
// still-empty nodes adopt. We implement the figures. See DESIGN.md §2.)
//
// Heads fragments keep their identity; their nodes sleep through B and C.
// The procedure runs as FlatMerge in sleeping/flat_procedures.h.
#pragma once

#include <cstdint>

#include "smst/sleeping/ldt.h"

namespace smst {

struct MergeRole {
  // True iff this node's fragment merges into another fragment now.
  bool is_tails = false;
  // On exactly one node of a tails fragment (the node incident to the
  // merge edge): the port of that edge. kNoPort elsewhere.
  std::uint32_t attach_port = kNoPort;
};

// Number of schedule blocks one merge occupies (A, B, C).
inline constexpr std::uint64_t kMergeBlocks = 3;

}  // namespace smst
