#include "smst/runtime/node.h"

#include <stdexcept>
#include <string>

namespace smst {

CoroutineProgram::CoroutineProgram(const WeightedGraph& graph,
                                   NodeProgram program, std::uint64_t seed,
                                   const ShardPartition* partition,
                                   std::uint32_t shard)
    : graph_(graph),
      program_(std::move(program)),
      root_rng_(seed),
      partition_(partition) {
  const std::size_t slots = partition_ == nullptr
                                ? graph.NumNodes()
                                : partition_->NodesOf(shard).size();
  contexts_ = std::vector<std::optional<NodeContext>>(slots);
  runners_.resize(slots);
}

Round CoroutineProgram::Step(NodeIndex v, Round now,
                             std::span<const InMessage> inbox,
                             SendLane& sends) {
  const std::size_t i = Slot(v);
  now_ = now;
  inbox_ = inbox;
  sends_ = &sends;
  if (now == 0) {
    Launch(v, i);
  } else {
    contexts_[i]->suspended_.resume();
  }
  return Suspended(v, i);
}

void CoroutineProgram::Launch(NodeIndex v, std::size_t i) {
  // Each node's private randomness is a substream keyed by its index, so
  // runs are reproducible whatever the shard count.
  NodeContext& ctx = contexts_[i].emplace(*this, v, root_rng_.Split(v));
  runners_[i] = TaskRunner(program_(ctx));
  runners_[i].Start();
}

Round CoroutineProgram::Suspended(NodeIndex v, std::size_t i) {
  if (runners_[i].Done()) {
    runners_[i].RethrowIfFailed();
    return kFlatDone;
  }
  // A frame suspends only in Awake, which records its round; kFlatDone
  // here means it suspended on a foreign awaitable (or asked for the
  // sentinel round itself), which no engine can resume.
  const Round r = std::exchange(requested_, kFlatDone);
  if (r == kFlatDone) {
    throw std::logic_error("node " + std::to_string(v) +
                           " suspended without an Awake round (a foreign "
                           "awaitable, or Awake(kMaxRound))");
  }
  return r;
}

}  // namespace smst
