// Weighted undirected graph with CONGEST port numbering.
//
// This is the shared substrate: generators build it, the simulator hands
// each node only its own ports (neighbor-blind, per the model), and the
// sequential reference MSTs consume it whole.
//
// Conventions:
//  * Nodes are dense indices 0..n-1 internally; each node additionally has
//    a distinct *ID* in [1, N] (the value the distributed algorithms see;
//    the deterministic algorithm's run time depends on N = max ID).
//  * Edge weights are distinct uint64s in [1, 2^64-2] (the paper assumes
//    distinct weights so the MST is unique; 0 and 2^64-1 are the
//    algorithms' -infinity and +infinity, runtime/message.h, and +infinity
//    is also the key Upcast-Min reads as "no value"). The builder
//    enforces both.
//  * Each node's incident edges occupy ports 0..deg-1 in insertion order;
//    a node addresses messages by port, never by neighbor index.
//  * Every port has a reverse: the port at the far end of the same edge.
//    A message arrives tagged with the receiver's own port for the edge
//    it crossed, so the simulator reads this for each delivery; the
//    builder records it once, while it writes the port tables.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <string_view>
#include <vector>

namespace smst {

using NodeIndex = std::uint32_t;
using EdgeIndex = std::uint32_t;
using NodeId = std::uint64_t;
using Weight = std::uint64_t;

inline constexpr NodeIndex kInvalidNode = static_cast<NodeIndex>(-1);
inline constexpr EdgeIndex kInvalidEdge = static_cast<EdgeIndex>(-1);

// Most nodes a graph can have: they are numbered 0..n-1 by NodeIndex,
// whose top value is kInvalidNode.
inline constexpr std::size_t kMaxNodeCount =
    std::numeric_limits<NodeIndex>::max();

// Throws std::invalid_argument naming `what`, the count and kMaxNodeCount
// when a graph of `count` nodes, or of rows x cols nodes (a product taken
// without overflow), cannot be numbered by NodeIndex. The generators call
// it on entry, before they allocate anything.
void CheckNodeCount(std::size_t count, std::string_view what);
void CheckNodeCount(std::size_t rows, std::size_t cols, std::string_view what);

// Most edges a graph can have: they are numbered 0..m-1 by EdgeIndex,
// whose top value is kInvalidEdge.
inline constexpr std::size_t kMaxEdgeCount =
    std::numeric_limits<EdgeIndex>::max();

// Throws std::invalid_argument naming `what`, the count and kMaxEdgeCount
// when a graph of `count` edges cannot be numbered by EdgeIndex. The
// dense generators call it on entry with their edge count.
void CheckEdgeCount(std::size_t count, std::string_view what);

struct Edge {
  NodeIndex u = kInvalidNode;
  NodeIndex v = kInvalidNode;
  Weight weight = 0;
};

// One entry of a node's port table.
struct Port {
  NodeIndex neighbor = kInvalidNode;
  EdgeIndex edge = kInvalidEdge;
  Weight weight = 0;
};

class WeightedGraph {
 public:
  WeightedGraph() = default;

  std::size_t NumNodes() const { return ids_.size(); }
  std::size_t NumEdges() const { return edges_.size(); }

  const Edge& GetEdge(EdgeIndex e) const { return edges_[e]; }
  const std::vector<Edge>& Edges() const { return edges_; }

  // The node's port table: incident edges in port order.
  std::span<const Port> PortsOf(NodeIndex v) const {
    return {ports_.data() + port_offset_[v],
            port_offset_[v + 1] - port_offset_[v]};
  }
  std::size_t DegreeOf(NodeIndex v) const {
    return port_offset_[v + 1] - port_offset_[v];
  }
  // CSR numbering of all ports: node v's port p is the graph's port
  // PortOffset(v) + p, in [0, NumPorts()). State kept per port (by the
  // scheduler, by the MST programs) lives in arrays indexed this way.
  std::size_t PortOffset(NodeIndex v) const { return port_offset_[v]; }
  std::size_t NumPorts() const { return ports_.size(); }
  // The node's reverse ports, in port order: ReversePortsOf(v)[p] is the
  // port at PortsOf(v)[p].neighbor that leads back to v over the same
  // edge.
  std::span<const std::uint32_t> ReversePortsOf(NodeIndex v) const {
    return {reverse_ports_.data() + port_offset_[v],
            port_offset_[v + 1] - port_offset_[v]};
  }

  NodeId IdOf(NodeIndex v) const { return ids_[v]; }
  NodeId MaxId() const { return max_id_; }

  // Sum of weights over an edge set (used to compare MSTs by value).
  Weight TotalWeight(std::span<const EdgeIndex> edge_set) const;

 private:
  friend class GraphBuilder;

  std::vector<Edge> edges_;
  std::vector<Port> ports_;                   // CSR-packed port tables
  std::vector<std::uint32_t> reverse_ports_;  // indexed like ports_
  std::vector<std::size_t> port_offset_;      // size n+1
  std::vector<NodeId> ids_;                   // node index -> ID
  NodeId max_id_ = 0;                         // N (>= every ID)
};

// Builds a WeightedGraph and validates the model's preconditions:
// simple (no loops / parallel edges), connected, distinct weights in
// [1, 2^64-2], distinct IDs in [1, N]. Violations throw std::invalid_argument
// with a message naming the offending edge/node (the first in insertion
// order).
class GraphBuilder {
 public:
  // Throws std::invalid_argument for 0 nodes or more than kMaxNodeCount.
  explicit GraphBuilder(std::size_t num_nodes);

  // Throws std::invalid_argument for an endpoint out of range, a
  // self-loop, or an edge past kMaxEdgeCount.
  GraphBuilder& AddEdge(NodeIndex u, NodeIndex v, Weight w);

  // Assigns node IDs (defaults to 1..n in index order if never called).
  // `max_id` must be >= every ID; it becomes the algorithms' N.
  GraphBuilder& SetIds(std::vector<NodeId> ids, NodeId max_id);

  // Sets N alone, keeping the default IDs 1..n (N defaults to n). Build
  // rejects an N below n, as it rejects any ID above N.
  GraphBuilder& SetMaxId(NodeId max_id);

  // Validates and produces the immutable graph. The builder is consumed.
  WeightedGraph Build() &&;

 private:
  std::size_t num_nodes_;
  std::vector<Edge> edges_;
  std::vector<NodeId> ids_;
  NodeId max_id_ = 0;
};

}  // namespace smst
