#include "smst/runtime/sharded/partition.h"

#include <algorithm>
#include <stdexcept>

namespace smst {

const char* ShardPolicyName(ShardPolicy p) {
  switch (p) {
    case ShardPolicy::kContiguousBlocks: return "block";
    case ShardPolicy::kRoundRobin: return "rr";
  }
  return "?";
}

ShardPolicy ParseShardPolicy(const std::string& text) {
  if (text == "block") return ShardPolicy::kContiguousBlocks;
  if (text == "rr") return ShardPolicy::kRoundRobin;
  throw std::invalid_argument("unknown shard policy '" + text +
                              "' (expected block or rr)");
}

std::uint32_t ShardPartition::ClampShards(std::size_t num_nodes,
                                          std::uint32_t shards) {
  return std::max<std::uint32_t>(
      1, std::min<std::uint64_t>(shards, std::max<std::size_t>(num_nodes, 1)));
}

ShardPartition::ShardPartition(std::size_t num_nodes, std::uint32_t shards,
                               ShardPolicy policy)
    : shards_(ClampShards(num_nodes, shards)),
      owner_(num_nodes),
      local_index_(num_nodes),
      nodes_(shards_) {
  if (policy == ShardPolicy::kRoundRobin) {
    for (NodeIndex v = 0; v < num_nodes; ++v) owner_[v] = v % shards_;
  } else {
    // Balanced contiguous blocks: the first n % K shards get one extra
    // node, so block sizes differ by at most one.
    const std::size_t base = num_nodes / shards_;
    const std::size_t extra = num_nodes % shards_;
    std::size_t begin = 0;
    for (std::uint32_t s = 0; s < shards_; ++s) {
      const std::size_t size = base + (s < extra ? 1 : 0);
      for (std::size_t i = 0; i < size; ++i) {
        owner_[begin + i] = s;
      }
      begin += size;
    }
  }
  for (NodeIndex v = 0; v < num_nodes; ++v) {
    local_index_[v] = static_cast<std::uint32_t>(nodes_[owner_[v]].size());
    nodes_[owner_[v]].push_back(v);
  }
}

}  // namespace smst
