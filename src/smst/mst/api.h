// Public one-call facade.
//
//   Xoshiro256 rng(7);
//   auto g = MakeErdosRenyi(200, 0.05, rng);
//   auto result = ComputeMst(g, MstAlgorithm::kRandomized, {.seed = 7});
//   // result.tree_edges is the MST; result.stats.max_awake is the awake
//   // complexity the paper bounds by O(log n).
#pragma once

#include "smst/graph/graph.h"
#include "smst/mst/options.h"
#include "smst/mst/result.h"

namespace smst {

MstRunResult ComputeMst(const WeightedGraph& g, MstAlgorithm algorithm,
                        const MstOptions& options = {});

}  // namespace smst
