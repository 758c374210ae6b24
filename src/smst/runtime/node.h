// NodeContext: the complete world as one node sees it.
//
// This is the only interface a coroutine node program may touch (flat
// programs see the same knowledge through FlatNodeRef and their Step
// arguments; runtime/flat/program.h). It exposes exactly the paper's
// initial knowledge — own ID, n, N, degree, incident edge weights (by
// port), the round clock, and a private randomness source — plus the
// single model primitive:
//
//   InboxBatch received =
//       co_await ctx.Awake(round, {{port, msg}, ...});
//
// "Be asleep until `round`, be awake in `round`, send these messages, and
// receive whatever arrives from simultaneously-awake neighbors." Sleeping
// costs nothing; every Awake costs one awake round on the meter.
//
// Deliberately absent: neighbor identities (learned only via messages),
// any global state, other nodes' metrics.
//
// Coroutine programs run on the one round loop (runtime/scheduler.h)
// through CoroutineProgram, the FlatProgram adapter below: its round-0
// Step creates and starts a node's task, every later Step resumes the
// frame suspended in Awake. Awake copies its batch into the node's send
// lane (runtime/lane.h) and clears it, and the resumed Awake returns a
// copy of the node's inbox lane as an InboxBatch.
#pragma once

#include <coroutine>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "smst/graph/graph.h"
#include "smst/runtime/flat/program.h"
#include "smst/runtime/message.h"
#include "smst/runtime/sharded/partition.h"
#include "smst/runtime/task.h"
#include "smst/util/prng.h"

namespace smst {

class CoroutineProgram;

class NodeContext {
 public:
  NodeContext(CoroutineProgram& host, NodeIndex index, Xoshiro256 rng);

  NodeContext(const NodeContext&) = delete;
  NodeContext& operator=(const NodeContext&) = delete;

  // --- the paper's initial knowledge -----------------------------------
  NodeId Id() const;
  std::size_t NumNodesKnown() const;  // n
  NodeId MaxIdKnown() const;          // N
  std::size_t Degree() const;
  Weight WeightAtPort(std::uint32_t port) const;
  // 0 before the first wake, then the round the node is awake in.
  Round CurrentRound() const;
  Xoshiro256& Rng() { return rng_; }

  // --- the model primitive ---------------------------------------------
  // Holds no batch: the sends are already in the engine's send lane, and
  // the inbox is copied out of the engine's inbox lane on resume.
  struct AwakeAwaiter {
    NodeContext* ctx;
    Round round;

    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) noexcept;
    InboxBatch await_resume() const;
  };

  // Be awake in absolute round `round` (strictly after the current round)
  // and send `sends` (at most one message per port). The batches are
  // SmallVecs (message.h): up to kInlineMessageCapacity sends/receipts
  // stay inline, so a typical awake allocates nothing. The batch is taken
  // by reference, copied into the node's send lane at once and cleared,
  // so the coroutine frame holds no second copy of its messages across
  // the suspension. An invalid request fails the node from the round loop
  // once the frame has suspended; it cannot be caught inside the program.
  AwakeAwaiter Awake(Round round, SendBatch&& sends);
  AwakeAwaiter Awake(Round round) { return AwakeAwaiter{this, round}; }

  // Single-send convenience. (Also sidesteps a GCC bug where a braced
  // initializer-list inside a co_await expression fails to compile:
  // "array used as initializer", GCC PR 102489.)
  AwakeAwaiter Awake(Round round, OutMessage send) {
    SendBatch sends;
    sends.push_back(std::move(send));
    return Awake(round, std::move(sends));
  }

  // Simulation-internal identity (used by algorithms only to index their
  // own output arrays; carries no model information a node lacks, since
  // outputs could equally be keyed by ID).
  NodeIndex Index() const { return index_; }

 private:
  friend class CoroutineProgram;

  // The graph is reached through the host, which outlives every
  // context: one reference per node instead of two.
  CoroutineProgram& host_;
  NodeIndex index_;
  Xoshiro256 rng_;
  std::coroutine_handle<> suspended_;  // the frame waiting in Awake
};

// A node program: the algorithm one node runs. Must eventually finish.
using NodeProgram = std::function<Task<void>(NodeContext&)>;

// Runs a coroutine NodeProgram as a FlatProgram. One instance serves the
// nodes of one shard (every node on a one-shard run), and is built,
// driven and destroyed on one thread, so its coroutine frames are
// recycled through that thread's free lists (frame_pool.cpp).
class CoroutineProgram final : public FlatProgram {
 public:
  // Serves the nodes `partition` gives `shard` (every node when
  // `partition` is null). Node v's randomness is Xoshiro256(seed).Split(v)
  // either way.
  CoroutineProgram(const WeightedGraph& graph, NodeProgram program,
                   std::uint64_t seed,
                   const ShardPartition* partition = nullptr,
                   std::uint32_t shard = 0);

  // now == 0 creates node v's task and runs it to its first Awake;
  // later calls resume the frame suspended there.
  Round Step(NodeIndex v, Round now, std::span<const InMessage> inbox,
             SendLane& sends) override;

 private:
  friend class NodeContext;

  std::size_t Slot(NodeIndex v) const {
    return partition_ == nullptr ? v : partition_->LocalIndex(v);
  }
  // Creates node v's context and task in slot i and runs the task to its
  // first suspension. Out of line: inlined, its locals cost every later
  // Step two more saved registers.
  [[gnu::noinline]] void Launch(NodeIndex v, std::size_t i);
  // The round node slot i's frame now waits for, or kFlatDone once its
  // task finished (rethrowing the exception the task ended with).
  Round Suspended(NodeIndex v, std::size_t i);

  const WeightedGraph& graph_;
  NodeProgram program_;
  Xoshiro256 root_rng_;
  const ShardPartition* partition_;
  // One slot per served node, sized once: a context must not move while
  // its program runs (the coroutine holds a reference to it).
  std::vector<std::optional<NodeContext>> contexts_;
  std::vector<TaskRunner> runners_;

  // The call in progress: the node's clock, its engine lanes, and the
  // round its Awake asked for.
  Round now_ = 0;
  std::span<const InMessage> inbox_;
  SendLane* sends_ = nullptr;
  Round requested_ = kFlatDone;
};

inline NodeContext::NodeContext(CoroutineProgram& host, NodeIndex index,
                                Xoshiro256 rng)
    : host_(host), index_(index), rng_(std::move(rng)) {}

inline NodeId NodeContext::Id() const { return host_.graph_.IdOf(index_); }
inline std::size_t NodeContext::NumNodesKnown() const {
  return host_.graph_.NumNodes();
}
inline NodeId NodeContext::MaxIdKnown() const { return host_.graph_.MaxId(); }
inline std::size_t NodeContext::Degree() const {
  return host_.graph_.DegreeOf(index_);
}
inline Weight NodeContext::WeightAtPort(std::uint32_t port) const {
  return host_.graph_.PortsOf(index_)[port].weight;
}
inline Round NodeContext::CurrentRound() const { return host_.now_; }

inline NodeContext::AwakeAwaiter NodeContext::Awake(Round round,
                                                    SendBatch&& sends) {
  for (const OutMessage& out : sends) host_.sends_->push_back(out);
  sends.clear();
  return AwakeAwaiter{this, round};
}

inline void NodeContext::AwakeAwaiter::await_suspend(
    std::coroutine_handle<> h) noexcept {
  ctx->suspended_ = h;
  ctx->host_.requested_ = round;
}

inline InboxBatch NodeContext::AwakeAwaiter::await_resume() const {
  const std::span<const InMessage> lane = ctx->host_.inbox_;
  InboxBatch inbox;
  inbox.reserve(lane.size());
  for (const InMessage& in : lane) inbox.push_back(in);
  return inbox;
}

}  // namespace smst
