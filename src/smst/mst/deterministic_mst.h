// Algorithm Deterministic-MST (paper §2.3).
//
// GHS with deterministic symmetry breaking. Per phase:
//
//   step (i) — find & sparsify MOEs (9 blocks):
//     B1 Transmit-Adjacent : learn neighbors' fragment IDs
//     B2 Upcast-Min        : fragment MOE to the root
//     B3 Fragment-Broadcast: root announces (MOE weight, DONE?)
//     B4 Transmit-Adjacent : announce the MOE weight, so every node
//                            discovers the INCOMING-MOEs on its ports
//     B5 Upcast-Sum        : incoming-MOE counts per subtree to the root
//     B6 token down-pass   : the root allots at most 3 tokens; nodes
//                            select incoming MOEs and split the remainder
//                            among their subtrees (Transmission-Schedule)
//     B7 Transmit-Adjacent : each incoming-MOE edge's verdict crosses to
//                            the source fragment
//     B8 Upcast-Min        : the outgoing endpoint's verdict to the root
//                            (the paper's +-infinity sentinel trick)
//     B9 Fragment-Broadcast: fragment-wide "is our MOE valid?"
//   NBR-INFO gather (8 blocks): 4 rounds of Upcast-Min+Fragment-Broadcast
//     make the <=4 valid-MOE tuples (weight, neighbor fragment, direction)
//     known fragment-wide; the supergraph H has max degree 4.
//   step (ii) — color & merge:
//     Fast-Awake-Coloring (5N blocks) 5-colors H greedily in ID order.
//     Merge wave 1 (3 blocks): Blue fragments with H-neighbors merge into
//       an arbitrary (we pick: lowest-ID) neighbor.
//     Merge wave 2 (3 blocks): Blue singleton fragments (isolated in H)
//       merge along their own MOE into the (possibly freshly merged)
//       fragment at its far end.
//
// Each phase costs O(1) awake rounds and O(nN) rounds; O(log n) phases
// suffice (Lemmas 4-6), giving O(log n) awake and O(nN log n) round
// complexity (Theorem 2). RunDeterministicLogStarMst replaces the
// coloring by the Corollary-1 log*-round variant: O(log n log* n) awake,
// O(n log n log* n) rounds.
#pragma once

#include "smst/graph/graph.h"
#include "smst/mst/options.h"
#include "smst/mst/result.h"

namespace smst {

// Schedule blocks per phase, excluding the coloring (which contributes
// kColoringBlocksPerStage * N more with the FastAwake variant).
inline constexpr std::uint64_t kDeterministicFixedBlocksPerPhase = 23;

// The paper's phase budget ceil(log_{240000/239999} n) + 240000 — a
// worst-case artifact (~240000 + 240000*ln n). Exposed for documentation
// and the bench that explains why we run kEarlyDetect instead.
std::uint64_t DeterministicPaperPhaseCount(std::size_t n);

// Both throw std::invalid_argument for options.adaptive_blocks, which
// only the randomized engine's schedule has.
MstRunResult RunDeterministicMst(const WeightedGraph& g,
                                 const MstOptions& options = {});
// Corollary 1: the same algorithm with the log* coloring.
MstRunResult RunDeterministicLogStarMst(const WeightedGraph& g,
                                        const MstOptions& options = {});

}  // namespace smst
