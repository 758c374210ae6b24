// Shared test helpers: thin aliases over the library's forest builder, a
// node lookup by ID, and the Erdos-Renyi generator's pair-loop reference.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "smst/graph/generators.h"
#include "smst/sleeping/forest_builder.h"

namespace smst::testing {

using smst::BuildForest;
using smst::PortTo;

// The node whose ID is `id`, or kInvalidNode; a scan over IdOf.
inline NodeIndex NodeWithId(const WeightedGraph& g, NodeId id) {
  for (NodeIndex v = 0; v < g.NumNodes(); ++v) {
    if (g.IdOf(v) == id) return v;
  }
  return kInvalidNode;
}

// The O(n^2) pair loop MakeErdosRenyi replays exactly: one NextDouble()
// per pair in (u, v) order, the components joined at shuffled
// representatives, then the weights and IDs of FromEdgeList. The
// library's generator must give the same graph and leave `rng` in the
// same state.
using EdgeList = std::vector<std::pair<NodeIndex, NodeIndex>>;

inline void PairLoopPatchConnectivity(std::size_t n, EdgeList& edges,
                                      Xoshiro256& rng) {
  std::vector<NodeIndex> parent(n);
  for (NodeIndex v = 0; v < n; ++v) parent[v] = v;
  auto find = [&](NodeIndex v) {
    while (parent[v] != v) {
      parent[v] = parent[parent[v]];
      v = parent[v];
    }
    return v;
  };
  for (auto [u, v] : edges) parent[find(u)] = find(v);
  std::vector<NodeIndex> reps;
  for (NodeIndex v = 0; v < n; ++v) {
    if (find(v) == v) reps.push_back(v);
  }
  Shuffle(reps, rng);
  for (std::size_t i = 1; i < reps.size(); ++i) {
    edges.emplace_back(reps[i - 1], reps[i]);
    parent[find(reps[i - 1])] = find(reps[i]);
  }
}

inline WeightedGraph PairLoopErdosRenyi(std::size_t n, double p,
                                        Xoshiro256& rng,
                                        const GeneratorOptions& opt = {}) {
  EdgeList edges;
  for (NodeIndex u = 0; u < n; ++u) {
    for (NodeIndex v = u + 1; v < n; ++v) {
      if (rng.NextDouble() < p) edges.emplace_back(u, v);
    }
  }
  PairLoopPatchConnectivity(n, edges, rng);
  return FromEdgeList(n, edges, rng, opt);
}

}  // namespace smst::testing
