// Internals shared by the GHS-style sleeping algorithms (Randomized-MST
// and the Barenboim-Maimon-style spanning tree, which is the same engine
// with a different edge-selection rule). Not part of the public API.
#pragma once

#include <cstdint>
#include <span>

#include "smst/graph/graph.h"
#include "smst/mst/options.h"
#include "smst/mst/result.h"
#include "smst/runtime/flat/program.h"
#include "smst/sleeping/ldt.h"
#include "smst/sleeping/procedures.h"

namespace smst::detail {

enum class SelectionRule {
  kMinWeight,      // choose the minimum-weight outgoing edge -> MST
  kMinNeighborId,  // choose any outgoing edge (min neighbor fragment ID,
                   // weight tie-break) -> arbitrary spanning tree
};

// Runs the coin-flip GHS engine with the given selection rule.
MstRunResult RunGhsStyle(const WeightedGraph& g, const MstOptions& options,
                         SelectionRule rule);

// This node's best outgoing-edge candidate under `rule` (absent if every
// neighbor is in the same fragment). `nbr_frag[p]` is the fragment ID
// heard on port p. The item's `b` field always carries the edge weight,
// which identifies the edge globally.
inline UpcastItem LocalMoe(const FlatNodeRef& node, const LdtState& ldt,
                           std::span<const NodeId> nbr_frag,
                           SelectionRule rule) {
  UpcastItem best;  // absent
  for (std::uint32_t p = 0; p < node.Degree(); ++p) {
    if (nbr_frag[p] == ldt.fragment_id) continue;
    const Weight w = node.WeightAtPort(p);
    UpcastItem candidate;
    switch (rule) {
      case SelectionRule::kMinWeight:
        candidate = UpcastItem{w, w, 0};
        break;
      case SelectionRule::kMinNeighborId:
        candidate = UpcastItem{nbr_frag[p], w, 0};
        break;
    }
    if (candidate < best) best = candidate;
  }
  return best;
}

// The port of this node's outgoing edge with the given weight, or kNoPort
// if the fragment's chosen edge is not incident here.
inline std::uint32_t PortOfOutgoingWeight(const FlatNodeRef& node,
                                          const LdtState& ldt,
                                          std::span<const NodeId> nbr_frag,
                                          Weight weight) {
  for (std::uint32_t p = 0; p < node.Degree(); ++p) {
    if (nbr_frag[p] != ldt.fragment_id && node.WeightAtPort(p) == weight) {
      return p;
    }
  }
  return kNoPort;
}

}  // namespace smst::detail
