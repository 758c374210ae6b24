// Harness utility: construct explicit LDT forests on a graph (used by
// tests and the toolbox micro-benches to exercise procedures on known
// tree shapes, outside of a full algorithm run).
#pragma once

#include <cstdint>
#include <queue>
#include <stdexcept>
#include <vector>

#include "smst/graph/graph.h"
#include "smst/sleeping/ldt.h"

namespace smst {

// Port of `v` that leads to `u`; throws if they are not adjacent.
inline std::uint32_t PortTo(const WeightedGraph& g, NodeIndex v, NodeIndex u) {
  std::uint32_t port = 0;
  for (const Port& p : g.PortsOf(v)) {
    if (p.neighbor == u) return port;
    ++port;
  }
  throw std::logic_error("PortTo: nodes not adjacent");
}

// Builds per-node LdtState for the forest formed by `tree_edges` (must be
// acyclic) rooted at `roots` (one root per tree). Levels are hop
// distances in the tree; fragment IDs are the roots' node IDs.
inline std::vector<LdtState> BuildForest(
    const WeightedGraph& g, const std::vector<EdgeIndex>& tree_edges,
    const std::vector<NodeIndex>& roots) {
  const std::size_t n = g.NumNodes();
  std::vector<std::vector<NodeIndex>> adj(n);
  for (EdgeIndex e : tree_edges) {
    adj[g.GetEdge(e).u].push_back(g.GetEdge(e).v);
    adj[g.GetEdge(e).v].push_back(g.GetEdge(e).u);
  }
  std::vector<LdtState> states(n);
  std::vector<bool> seen(n, false);
  for (NodeIndex root : roots) {
    std::queue<NodeIndex> q;
    q.push(root);
    seen[root] = true;
    states[root] = LdtState::Singleton(g.IdOf(root));
    while (!q.empty()) {
      NodeIndex v = q.front();
      q.pop();
      for (NodeIndex u : adj[v]) {
        if (seen[u]) continue;
        seen[u] = true;
        states[u].fragment_id = states[v].fragment_id;
        states[u].level = states[v].level + 1;
        states[u].parent_port = PortTo(g, u, v);
        states[v].child_ports.push_back(
            g.ReversePortsOf(u)[states[u].parent_port]);
        q.push(u);
      }
    }
  }
  for (NodeIndex v = 0; v < n; ++v) {
    if (!seen[v]) throw std::logic_error("BuildForest: node not covered");
  }
  return states;
}

}  // namespace smst
