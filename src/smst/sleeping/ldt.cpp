#include "smst/sleeping/ldt.h"

#include <algorithm>
#include <queue>
#include <string>

namespace smst {

std::string CheckForestInvariant(const WeightedGraph& g,
                                 const std::vector<LdtState>& states) {
  const std::size_t n = g.NumNodes();
  if (states.size() != n) return "states size mismatch";

  auto describe = [&](NodeIndex v) {
    return "node " + std::to_string(v) + " (id " + std::to_string(g.IdOf(v)) +
           ")";
  };

  // Pointer symmetry: v's parent must list v as a child and vice versa,
  // and both must be in the same fragment.
  for (NodeIndex v = 0; v < n; ++v) {
    const LdtState& s = states[v];
    auto ports = g.PortsOf(v);
    if (s.parent_port != kNoPort) {
      if (s.parent_port >= ports.size()) {
        return describe(v) + " has an out-of-range parent port";
      }
      const NodeIndex p = ports[s.parent_port].neighbor;
      const LdtState& ps = states[p];
      if (ps.fragment_id != s.fragment_id) {
        return describe(v) + " and its parent disagree on fragment ID";
      }
      if (s.level != ps.level + 1) {
        return describe(v) + " level is not parent level + 1";
      }
      const std::uint32_t port_at_p = g.ReversePortsOf(v)[s.parent_port];
      if (std::find(ps.child_ports.begin(), ps.child_ports.end(),
                    port_at_p) == ps.child_ports.end()) {
        return describe(v) + " is not listed by its parent";
      }
    } else {
      if (s.level != 0) return describe(v) + " is a root with level != 0";
      if (s.fragment_id != g.IdOf(v)) {
        return describe(v) + " is a root whose fragment ID is not its own";
      }
    }
    for (std::uint32_t cp : s.child_ports) {
      if (cp >= ports.size()) {
        return describe(v) + " has an out-of-range child port";
      }
      const NodeIndex c = ports[cp].neighbor;
      const LdtState& cs = states[c];
      if (cs.fragment_id != s.fragment_id ||
          cs.parent_port != g.ReversePortsOf(v)[cp]) {
        return describe(v) + " lists a child that does not point back";
      }
    }
  }

  // Per-fragment reachability: from each root, tree edges reach exactly
  // the nodes carrying its fragment ID.
  std::vector<bool> reached(n, false);
  for (NodeIndex r = 0; r < n; ++r) {
    if (!states[r].IsRoot()) continue;
    std::queue<NodeIndex> q;
    q.push(r);
    reached[r] = true;
    while (!q.empty()) {
      NodeIndex v = q.front();
      q.pop();
      for (std::uint32_t cp : states[v].child_ports) {
        NodeIndex c = g.PortsOf(v)[cp].neighbor;
        if (reached[c]) return describe(c) + " reached twice (cycle?)";
        reached[c] = true;
        q.push(c);
      }
    }
  }
  for (NodeIndex v = 0; v < n; ++v) {
    if (!reached[v]) return describe(v) + " is not reachable from any root";
  }
  return "";
}

}  // namespace smst
