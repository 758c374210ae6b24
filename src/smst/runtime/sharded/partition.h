// Node-set partitioning for the sharded simulator backend.
//
// A ShardPartition assigns every node to exactly one shard worker; each
// worker owns its nodes' coroutines, wake queue, metrics, and delayed-
// message parking. Ownership is a pure function of (n, shard count,
// policy), so a partition is reproducible and the cross-shard message
// routing derived from it is deterministic.
//
// Policies:
//  * kContiguousBlocks — balanced index ranges ([0, n/K) to shard 0, and
//    so on). Generators lay out rings and grids with index locality, so
//    contiguous blocks keep most edges shard-internal. Default.
//  * kRoundRobin — node v to shard v % K. Near-perfect load balance for
//    workloads where awake cost varies with index (e.g. a star's center),
//    at the price of making almost every edge cross-shard.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "smst/graph/graph.h"

namespace smst {

enum class ShardPolicy : std::uint8_t {
  kContiguousBlocks,
  kRoundRobin,
};

const char* ShardPolicyName(ShardPolicy p);
// Parses "block" / "rr" (the CLI grammar); throws std::invalid_argument.
ShardPolicy ParseShardPolicy(const std::string& text);

class ShardPartition {
 public:
  // The shard count a partition of `num_nodes` nodes has for a requested
  // `shards`: clamped to [1, max(n, 1)], since more workers than nodes
  // would only add idle barrier participants.
  static std::uint32_t ClampShards(std::size_t num_nodes,
                                   std::uint32_t shards);

  // Partitions into ClampShards(num_nodes, shards) shards.
  ShardPartition(std::size_t num_nodes, std::uint32_t shards,
                 ShardPolicy policy);

  std::uint32_t NumShards() const { return shards_; }
  std::uint32_t Owner(NodeIndex v) const { return owner_[v]; }
  // Position of `v` within its owner's NodesOf list (nodes are listed in
  // ascending index order, so local order mirrors global order).
  std::uint32_t LocalIndex(NodeIndex v) const { return local_index_[v]; }
  const std::vector<NodeIndex>& NodesOf(std::uint32_t shard) const {
    return nodes_[shard];
  }

 private:
  std::uint32_t shards_;
  std::vector<std::uint32_t> owner_;        // node -> shard
  std::vector<std::uint32_t> local_index_;  // node -> rank within shard
  std::vector<std::vector<NodeIndex>> nodes_;
};

}  // namespace smst
