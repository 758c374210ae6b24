// Procedure Fast-Awake-Coloring(n, N) (paper §2.3).
//
// Properly 5-colors the supergraph H whose nodes are fragments and whose
// edges are the phase's valid MOEs (max degree 4). Fragments take their
// turn in fragment-ID order: N stages, one per possible ID. In stage i,
// only fragment i and its H-neighbors participate; everyone else sleeps,
// so each node is awake in at most 5 stages and the whole coloring costs
// O(1) awake rounds per node and O(nN) running time.
//
// Within a fragment's own stage, every node computes the same greedy
// choice — the highest-priority palette color no already-colored
// H-neighbor took (Blue > Red > Orange > Black > Green) — and the choice
// is funneled through the root (Upcast-Min + Fragment-Broadcast) before
// the boundary announces it to the neighbors (Transmit-Adjacent +
// Upcast-Min + Fragment-Broadcast = the paper's Neighbor-Awareness).
//
// Both colorings run as flat sub-machines: FlatColoring and
// FlatLogStarColoring in sleeping/flat_procedures.h.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <utility>

#include "smst/graph/graph.h"
#include "smst/sleeping/ldt.h"
#include "smst/util/small_vec.h"

namespace smst {

// Coloring-internal message tags (< 100 like the rest of the toolbox).
inline constexpr std::uint16_t kTagColorChoice = 60;
inline constexpr std::uint16_t kTagColorAnnounce = 61;
inline constexpr std::uint16_t kTagColorNbr = 62;

// Palette in priority order; kNone = not yet colored.
enum class FragColor : std::uint8_t {
  kNone = 0,
  kBlue = 1,
  kRed = 2,
  kOrange = 3,
  kBlack = 4,
  kGreen = 5,
};

// One H-neighbor of this node's fragment. The list is identical at every
// node of a fragment (assembled fragment-wide before coloring).
struct NbrEntry {
  NodeId frag_id = 0;
  Weight weight = 0;    // the connecting valid-MOE edge's weight (unique)
  bool outgoing = false;  // true: our fragment's MOE; false: accepted incoming
};

// A boundary edge of *this node*: a valid-MOE edge incident to it.
struct HPort {
  std::uint32_t port = kNoPort;
  NodeId neighbor_frag = 0;
};

struct ColoringResult {
  FragColor my_color = FragColor::kNone;
  // (ID, color) of the fragment's H-neighbors (known fragment-wide), in
  // ascending ID order. H has max degree 4, so the list stays inline.
  SmallVec<std::pair<NodeId, FragColor>, 4> neighbor_colors;
};

// Schedule blocks consumed per stage and in total (every node's cursor
// advances by kColoringBlocksPerStage * N regardless of participation).
inline constexpr std::uint64_t kColoringBlocksPerStage = 5;

// The fragment-wide greedy palette choice (highest-priority color no
// already-colored H-neighbor took) and the received-color validation.
FragColor ColoringGreedyChoice(
    std::span<const std::pair<NodeId, FragColor>> taken);
FragColor ColoringCheckedColor(std::uint64_t raw);

// ----------------------------------------------------------------------
// Corollary 1: the log*-round coloring alternative.
//
// The brief announcement only says "replace Fast-Awake-Coloring with an
// O(log* n) coloring (see e.g. [22])"; we instantiate the classic
// pipeline for graphs of max degree 4:
//   1. orient every H-edge toward the larger fragment ID (a DAG) and
//      split each fragment's <=4 out-edges into 4 forests;
//   2. Cole-Vishkin color reduction on all 4 forests in parallel
//      (coordinates packed into one O(log n)-bit announcement) —
//      O(log* N) iterations down to 6 colors per forest;
//   3. Goldberg-Plotkin-Shannon shift-down + recolor, 3 iterations per
//      forest (again in parallel), down to 3 colors per forest;
//   4. the 3^4 = 81 combined colors are reduced to 5 by 76 steps that
//      each retire one color class (class members are pairwise
//      non-adjacent, so they recolor greedily in one step; a fragment is
//      awake only in its own step and its <=4 neighbors' steps).
// Every fragment is awake O(log* N) rounds per phase; the whole coloring
// spans a fixed number of blocks, so one phase costs O(n log* N) rounds.
//
// Merging afterwards uses the *local color minima* as the movers (the
// Blue role): strict minima are independent, every H-component has one,
// and the distance-to-minimum argument gives the same 1/341-fraction
// guarantee as the paper's Lemma 4.
// ----------------------------------------------------------------------

struct LogStarResult {
  std::uint32_t my_color = 0;  // 0..4
  std::map<NodeId, std::uint32_t> neighbor_colors;  // final colors

  // The mover rule replacing "Blue": strictly smaller than every
  // H-neighbor's final color.
  bool IsMover() const {
    for (const auto& [id, c] : neighbor_colors) {
      if (c <= my_color) return false;
    }
    return true;
  }
};

// Number of Cole-Vishkin iterations for initial colors in [1, N].
std::uint32_t LogStarCvIterations(NodeId max_id);

// Schedule blocks the whole log* coloring spans (same for every
// fragment; non-participants SkipBlocks this amount).
std::uint64_t LogStarColoringBlocks(std::size_t n, NodeId max_id);

}  // namespace smst
