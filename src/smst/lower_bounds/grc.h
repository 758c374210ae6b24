// The lower-bound graph family G_rc (paper §3.2, Figure 1).
//
// r parallel paths ("rows") of c nodes each. Alice is the first node of
// row 1 and Bob its last; Alice (resp. Bob) also connects to the first
// (resp. last) node of every other row. Theta(log n) equally spaced
// columns X of row 1 (|X| a power of two, containing the first and last
// columns) connect down to every other row at the same column, and a
// balanced binary tree (new internal nodes I) is built over X. The
// highway X + tree gives hop diameter Theta(c / log n) (Observation 1),
// while any algorithm faster than o(c) rounds must squeeze Omega(r) bits
// through the O(log n) tree nodes — the congestion that the Theorem-4
// product lower bound charges to awake time.
#pragma once

#include <cstdint>
#include <vector>

#include "smst/graph/graph.h"
#include "smst/util/prng.h"

namespace smst {

struct GrcInstance {
  WeightedGraph graph;
  std::size_t rows = 0;  // r
  std::size_t cols = 0;  // c
  NodeIndex alice = kInvalidNode;
  NodeIndex bob = kInvalidNode;
  // Row-major node grid: node_at[row][col].
  std::vector<std::vector<NodeIndex>> node_at;
  // The X columns (as column indices into row 1) and the tree internals I.
  std::vector<std::size_t> x_cols;
  std::vector<NodeIndex> tree_internal;
  // Alice/Bob attachment edges per row ell in [2, r] (index ell-2): these
  // are the edges whose marking encodes the set-disjointness inputs.
  std::vector<EdgeIndex> alice_row_edges;
  std::vector<EdgeIndex> bob_row_edges;
  // Everything always marked in the CSS encoding: the r row paths plus
  // the binary tree edges (NOT the X-to-row column edges).
  std::vector<EdgeIndex> backbone_edges;
};

// Builds G_rc with random distinct weights. Requires rows >= 2 and
// cols >= 4. The network size is rows*cols + |I|; a size above
// kMaxNodeCount (graph.h) throws std::invalid_argument on entry.
GrcInstance BuildGrc(std::size_t rows, std::size_t cols, Xoshiro256& rng);

// The paper's parameter regime for network size n: c = Theta(sqrt(n)
// log^2 n)-ish and r = n/c. Returns (rows, cols) with rows >= 2.
std::pair<std::size_t, std::size_t> GrcRegimeForSize(std::size_t n);

}  // namespace smst
