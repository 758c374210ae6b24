#include "smst/graph/graph.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <string>

#include "smst/util/flat_key_set.h"

namespace smst {

NodeIndex WeightedGraph::IndexOfId(NodeId id) const {
  for (NodeIndex v = 0; v < ids_.size(); ++v) {
    if (ids_[v] == id) return v;
  }
  return kInvalidNode;
}

Weight WeightedGraph::TotalWeight(std::span<const EdgeIndex> edge_set) const {
  Weight total = 0;
  for (EdgeIndex e : edge_set) total += edges_[e].weight;
  return total;
}

namespace {

[[noreturn]] void ThrowTooManyNodes(const std::string& count,
                                    std::string_view what) {
  throw std::invalid_argument(
      std::string(what) + " of " + count +
      " nodes exceeds the node index range (at most " +
      std::to_string(kMaxNodeCount) + " nodes)");
}

[[noreturn]] void ThrowTooManyEdges(std::size_t count, std::string_view what) {
  throw std::invalid_argument(
      std::string(what) + " of " + std::to_string(count) +
      " edges exceeds the edge index range (at most " +
      std::to_string(kMaxEdgeCount) + " edges)");
}

}  // namespace

void CheckNodeCount(std::size_t count, std::string_view what) {
  if (count > kMaxNodeCount) ThrowTooManyNodes(std::to_string(count), what);
}

void CheckNodeCount(std::size_t rows, std::size_t cols,
                    std::string_view what) {
  if (cols != 0 && rows > kMaxNodeCount / cols) {
    ThrowTooManyNodes(std::to_string(rows) + " x " + std::to_string(cols),
                      what);
  }
}

void CheckEdgeCount(std::size_t count, std::string_view what) {
  if (count > kMaxEdgeCount) ThrowTooManyEdges(count, what);
}

GraphBuilder::GraphBuilder(std::size_t num_nodes) : num_nodes_(num_nodes) {
  if (num_nodes == 0) throw std::invalid_argument("graph must be non-empty");
  CheckNodeCount(num_nodes, "graph");
}

GraphBuilder& GraphBuilder::AddEdge(NodeIndex u, NodeIndex v, Weight w) {
  if (u >= num_nodes_ || v >= num_nodes_) {
    throw std::invalid_argument("edge endpoint out of range");
  }
  if (u == v) throw std::invalid_argument("self-loop not allowed");
  if (edges_.size() == kMaxEdgeCount) {
    ThrowTooManyEdges(edges_.size() + 1, "graph");
  }
  edges_.push_back(Edge{u, v, w});
  return *this;
}

GraphBuilder& GraphBuilder::SetIds(std::vector<NodeId> ids, NodeId max_id) {
  if (ids.size() != num_nodes_) {
    throw std::invalid_argument("ids size must equal node count");
  }
  ids_ = std::move(ids);
  max_id_ = max_id;
  return *this;
}

GraphBuilder& GraphBuilder::SetMaxId(NodeId max_id) {
  max_id_ = max_id;
  return *this;
}

WeightedGraph GraphBuilder::Build() && {
  WeightedGraph g;
  g.edges_ = std::move(edges_);

  // Determinism audit: `seen` is membership-only — FlatKeySet has no
  // iteration at all — so hash order cannot reach the built graph, and
  // each check names the first offender in insertion order. One table
  // sized for max(m, given IDs) keys serves all three checks, emptied
  // between them, and is freed before the port tables are built; those
  // follow edge-insertion order. Nothing sized by n is allocated until
  // the edge count could connect n nodes.
  {
    FlatKeySet seen(std::max(g.edges_.size(), ids_.size()));
    // Distinct weights (required: makes the MST unique), none of them a
    // reserved sentinel.
    for (const Edge& e : g.edges_) {
      if (e.weight == 0 || e.weight == ~Weight{0}) {
        throw std::invalid_argument(
            "edge " + std::to_string(e.u) + "-" + std::to_string(e.v) +
            " has reserved weight " + std::to_string(e.weight) +
            " (weights must lie in [1, 2^64-2])");
      }
      if (!seen.Insert(e.weight)) {
        throw std::invalid_argument("duplicate edge weight " +
                                    std::to_string(e.weight));
      }
    }
    // Simple graph: no parallel edges.
    seen.Clear();
    for (const Edge& e : g.edges_) {
      const std::uint64_t lo = std::min(e.u, e.v);
      const std::uint64_t hi = std::max(e.u, e.v);
      if (!seen.Insert((lo << 32) | hi)) {
        throw std::invalid_argument("parallel edge between " +
                                    std::to_string(e.u) + " and " +
                                    std::to_string(e.v));
      }
    }
    // Distinct IDs in [1, N] (the default 1..n are checked below).
    seen.Clear();
    for (NodeId id : ids_) {
      if (id == 0 || id > max_id_) {
        throw std::invalid_argument("node ID " + std::to_string(id) +
                                    " outside [1, N]");
      }
      if (!seen.Insert(id)) {
        throw std::invalid_argument("duplicate node ID " + std::to_string(id));
      }
    }
  }
  // Connectivity needs n - 1 edges: fewer fail here, before the n-sized
  // tables below (an edge list's header alone can name 2^32 - 1 nodes).
  if (g.edges_.size() + 1 < num_nodes_) {
    throw std::invalid_argument("graph is not connected");
  }
  if (ids_.empty()) {
    if (max_id_ == 0) max_id_ = num_nodes_;
    if (max_id_ < num_nodes_) {
      throw std::invalid_argument("node ID " + std::to_string(num_nodes_) +
                                  " outside [1, N]");
    }
    ids_.resize(num_nodes_);
    std::iota(ids_.begin(), ids_.end(), NodeId{1});
  }
  g.ids_ = std::move(ids_);
  g.max_id_ = max_id_;

  // Build CSR port tables in edge-insertion order; the two ports of an
  // edge are each other's reverse.
  g.port_offset_.assign(num_nodes_ + 1, 0);
  for (const Edge& e : g.edges_) {
    ++g.port_offset_[e.u + 1];
    ++g.port_offset_[e.v + 1];
  }
  for (std::size_t v = 0; v < num_nodes_; ++v) {
    g.port_offset_[v + 1] += g.port_offset_[v];
  }
  g.ports_.resize(2 * g.edges_.size());
  g.reverse_ports_.resize(g.ports_.size());
  std::vector<std::size_t> cursor(g.port_offset_.begin(),
                                  g.port_offset_.end() - 1);
  for (EdgeIndex e = 0; e < g.edges_.size(); ++e) {
    const Edge& edge = g.edges_[e];
    const std::size_t at_u = cursor[edge.u]++;
    const std::size_t at_v = cursor[edge.v]++;
    g.ports_[at_u] = Port{edge.v, e, edge.weight};
    g.ports_[at_v] = Port{edge.u, e, edge.weight};
    g.reverse_ports_[at_u] =
        static_cast<std::uint32_t>(at_v - g.port_offset_[edge.v]);
    g.reverse_ports_[at_v] =
        static_cast<std::uint32_t>(at_u - g.port_offset_[edge.u]);
  }

  // Connectivity (the model requires a connected network).
  {
    std::vector<bool> visited(num_nodes_, false);
    std::vector<NodeIndex> stack{0};
    visited[0] = true;
    std::size_t count = 1;
    while (!stack.empty()) {
      NodeIndex v = stack.back();
      stack.pop_back();
      for (const Port& p : g.PortsOf(v)) {
        if (!visited[p.neighbor]) {
          visited[p.neighbor] = true;
          ++count;
          stack.push_back(p.neighbor);
        }
      }
    }
    if (count != num_nodes_) {
      throw std::invalid_argument("graph is not connected");
    }
  }
  return g;
}

}  // namespace smst
