// Labeled Distance Tree (LDT) state.
//
// The paper's central data structure: a rooted spanning tree of a
// fragment where every node knows (a) the fragment ID (= the root's node
// ID), (b) its hop distance from the root ("level"), and (c) which of its
// ports lead to its parent and children. A Forest of LDTs (FLDT)
// partitions the graph; both MST algorithms maintain the FLDT invariant
// between phases and shrink the forest to a single LDT = the MST.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "smst/graph/graph.h"
#include "smst/util/small_vec.h"

namespace smst {

inline constexpr std::uint32_t kNoPort = static_cast<std::uint32_t>(-1);

// Tree fan-out is small in the model workloads, so child lists live
// inline (no heap) in the common case; merging re-roots then copy and
// mutate these every phase, which this keeps allocation-free.
using ChildPortList = SmallVec<std::uint32_t, 4>;

struct LdtState {
  NodeId fragment_id = 0;
  std::uint64_t level = 0;
  std::uint32_t parent_port = kNoPort;
  ChildPortList child_ports;

  bool IsRoot() const { return parent_port == kNoPort; }

  // A node's initial state: a singleton fragment rooted at itself.
  static LdtState Singleton(NodeId own_id) {
    LdtState s;
    s.fragment_id = own_id;
    s.level = 0;
    return s;
  }
};

// Whole-forest invariant check, called only by tests: on final forests
// and on the per-phase snapshots a run records when asked to
// (MstOptions::record_forest_snapshots). Views every node's local state
// globally and verifies: parent/child pointers are symmetric tree edges,
// levels equal the hop distance to a unique root per fragment, and
// fragment IDs equal the root's node ID. Returns an empty string when the
// forest is valid, else a description of the first violation.
std::string CheckForestInvariant(const WeightedGraph& g,
                                 const std::vector<LdtState>& states);

}  // namespace smst
