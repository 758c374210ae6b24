#include "smst/mst/api.h"

#include <stdexcept>

#include "smst/mst/deterministic_mst.h"
#include "smst/mst/ghs_congest.h"
#include "smst/mst/randomized_mst.h"
#include "smst/mst/spanning_tree_bm.h"

namespace smst {

const char* MstAlgorithmName(MstAlgorithm a) {
  switch (a) {
    case MstAlgorithm::kRandomized: return "Randomized-MST";
    case MstAlgorithm::kDeterministic: return "Deterministic-MST";
    case MstAlgorithm::kDeterministicLogStar: return "Deterministic-MST(log*)";
    case MstAlgorithm::kGhsBaseline: return "GHS-baseline";
    case MstAlgorithm::kBmSpanningTree: return "BM-SpanningTree";
  }
  return "?";
}

MstRunResult ComputeMst(const WeightedGraph& g, MstAlgorithm algorithm,
                        const MstOptions& options) {
  switch (algorithm) {
    case MstAlgorithm::kRandomized:
      return RunRandomizedMst(g, options);
    case MstAlgorithm::kDeterministic:
      return RunDeterministicMst(g, options);
    case MstAlgorithm::kDeterministicLogStar:
      return RunDeterministicLogStarMst(g, options);
    case MstAlgorithm::kGhsBaseline:
      return RunGhsBaseline(g, options);
    case MstAlgorithm::kBmSpanningTree:
      return RunBmSpanningTree(g, options);
  }
  throw std::invalid_argument("unknown algorithm");
}

}  // namespace smst
