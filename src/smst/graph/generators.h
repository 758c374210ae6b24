// Graph family generators.
//
// Every generator draws distinct edge weights and (optionally shuffled)
// node IDs from the supplied PRNG, so a (family, size, seed) triple pins
// down one exact instance. All families are connected by construction.
// A node count above kMaxNodeCount (graph.h) throws std::invalid_argument
// on entry, before anything is drawn or allocated; so does an edge count
// above kMaxEdgeCount for the families whose size fixes it (complete,
// grid, barbell, lollipop). The random families' edges meet
// GraphBuilder::AddEdge's check of the same bound.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "smst/graph/graph.h"
#include "smst/util/prng.h"

namespace smst {

struct GeneratorOptions {
  // N, the top of the ID range. 0 means "use n" (IDs are then a random
  // permutation of 1..n). Values > n sample IDs from [1, N]; the
  // deterministic algorithm's run time scales with this.
  NodeId max_id = 0;
  // When false, node IDs are 1..n in index order (useful in unit tests).
  bool shuffle_ids = true;
};

// -- deterministic topologies, random weights --------------------------
WeightedGraph MakePath(std::size_t n, Xoshiro256& rng,
                       const GeneratorOptions& opt = {});
WeightedGraph MakeRing(std::size_t n, Xoshiro256& rng,
                       const GeneratorOptions& opt = {});
WeightedGraph MakeStar(std::size_t n, Xoshiro256& rng,
                       const GeneratorOptions& opt = {});
WeightedGraph MakeComplete(std::size_t n, Xoshiro256& rng,
                           const GeneratorOptions& opt = {});
WeightedGraph MakeBinaryTree(std::size_t n, Xoshiro256& rng,
                             const GeneratorOptions& opt = {});
// rows*cols nodes, 4-neighbor mesh.
WeightedGraph MakeGrid(std::size_t rows, std::size_t cols, Xoshiro256& rng,
                       const GeneratorOptions& opt = {});
// Two complete graphs of size n/2 joined by a single bridge edge.
WeightedGraph MakeBarbell(std::size_t n, Xoshiro256& rng,
                          const GeneratorOptions& opt = {});
// d-dimensional hypercube (2^d nodes).
WeightedGraph MakeHypercube(std::size_t dimensions, Xoshiro256& rng,
                            const GeneratorOptions& opt = {});
// A spine path with one leaf per spine node (2*spine nodes): deep trees
// with heavy branching, a worst case for the schedule's Up/Down passes.
WeightedGraph MakeCaterpillar(std::size_t spine, Xoshiro256& rng,
                              const GeneratorOptions& opt = {});
// Complete graph on n/2 nodes with a path of n/2 nodes hanging off it:
// the classic high-diameter + dense-core stress shape.
WeightedGraph MakeLollipop(std::size_t n, Xoshiro256& rng,
                           const GeneratorOptions& opt = {});

// -- random topologies --------------------------------------------------
// Erdős–Rényi G(n, p), patched to connectivity by adding a random
// spanning tree over the components if needed. p >= 1 takes every pair;
// p < 0 or NaN throws std::invalid_argument.
WeightedGraph MakeErdosRenyi(std::size_t n, double p, Xoshiro256& rng,
                             const GeneratorOptions& opt = {});
// Random spanning tree alone (uniform attachment), a worst case for
// fragment diameters.
WeightedGraph MakeRandomTree(std::size_t n, Xoshiro256& rng,
                             const GeneratorOptions& opt = {});
// Random geometric graph on the unit square with connection radius
// `radius` (patched to connectivity); the usual model for the sensor
// networks the paper's introduction motivates. A radius < 0 or NaN throws
// std::invalid_argument.
WeightedGraph MakeRandomGeometric(std::size_t n, double radius,
                                  Xoshiro256& rng,
                                  const GeneratorOptions& opt = {});

// Builds a graph from an explicit edge list (u, v) pairs, assigning random
// distinct weights and IDs. Shared helper for the lower-bound families.
WeightedGraph FromEdgeList(std::size_t n,
                           const std::vector<std::pair<NodeIndex, NodeIndex>>& edges,
                           Xoshiro256& rng, const GeneratorOptions& opt = {});

}  // namespace smst
