// Sharded simulator backend: partitioning, the exchange, and the
// one-shard path. The headline contract — results, metrics, and outcomes
// are bit-identical at every shard count, for both partition policies,
// every MST algorithm, and with or without an adversary — is checked
// against the golden records in mst_golden_test.cpp.
#include <cstdint>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "smst/graph/generators.h"
#include "smst/runtime/sharded/exchange.h"
#include "smst/runtime/sharded/partition.h"
#include "smst/runtime/simulator.h"

namespace smst {
namespace {

// --------------------------------------------------------- partition ---

TEST(ShardPartitionTest, ClampsShardCountToNodeCount) {
  ShardPartition p(5, 64, ShardPolicy::kContiguousBlocks);
  EXPECT_EQ(p.NumShards(), 5u);
  ShardPartition q(5, 0, ShardPolicy::kContiguousBlocks);
  EXPECT_EQ(q.NumShards(), 1u);
  ShardPartition empty(0, 4, ShardPolicy::kRoundRobin);
  EXPECT_EQ(empty.NumShards(), 1u);
}

TEST(ShardPartitionTest, ContiguousBlocksAreBalancedAndOrdered) {
  // 10 nodes over 3 shards: sizes 4/3/3, ascending index ranges.
  ShardPartition p(10, 3, ShardPolicy::kContiguousBlocks);
  ASSERT_EQ(p.NumShards(), 3u);
  EXPECT_EQ(p.NodesOf(0), (std::vector<NodeIndex>{0, 1, 2, 3}));
  EXPECT_EQ(p.NodesOf(1), (std::vector<NodeIndex>{4, 5, 6}));
  EXPECT_EQ(p.NodesOf(2), (std::vector<NodeIndex>{7, 8, 9}));
}

TEST(ShardPartitionTest, RoundRobinOwnerIsIndexModuloShards) {
  ShardPartition p(10, 3, ShardPolicy::kRoundRobin);
  for (NodeIndex v = 0; v < 10; ++v) EXPECT_EQ(p.Owner(v), v % 3);
  EXPECT_EQ(p.NodesOf(0), (std::vector<NodeIndex>{0, 3, 6, 9}));
}

TEST(ShardPartitionTest, OwnerAndLocalIndexAgreeWithNodeLists) {
  for (ShardPolicy policy :
       {ShardPolicy::kContiguousBlocks, ShardPolicy::kRoundRobin}) {
    ShardPartition p(23, 4, policy);
    std::size_t covered = 0;
    for (std::uint32_t s = 0; s < p.NumShards(); ++s) {
      const auto& nodes = p.NodesOf(s);
      covered += nodes.size();
      for (std::uint32_t i = 0; i < nodes.size(); ++i) {
        EXPECT_EQ(p.Owner(nodes[i]), s);
        EXPECT_EQ(p.LocalIndex(nodes[i]), i);
      }
    }
    EXPECT_EQ(covered, 23u);  // every node owned exactly once
  }
}

TEST(ShardPartitionTest, PolicyNamesRoundTrip) {
  EXPECT_EQ(ParseShardPolicy("block"), ShardPolicy::kContiguousBlocks);
  EXPECT_EQ(ParseShardPolicy("rr"), ShardPolicy::kRoundRobin);
  EXPECT_STREQ(ShardPolicyName(ShardPolicy::kContiguousBlocks), "block");
  EXPECT_STREQ(ShardPolicyName(ShardPolicy::kRoundRobin), "rr");
  EXPECT_THROW(ParseShardPolicy("zigzag"), std::invalid_argument);
}

// ---------------------------------------------------------- exchange ---

// Entries are tagged with their (round, pair, position) so a drain can
// tell which pair and which push each one came from.
std::uint32_t ExchangeSrc(std::uint32_t round, std::uint32_t from,
                          std::uint32_t to, std::uint32_t i) {
  return round * 100000 + from * 10000 + to * 1000 + i;
}

// Every producer pushes `count` entries to every consumer (itself
// included), interleaved across all pairs.
void PushToEveryPair(ShardExchange& exchange, std::uint32_t shards,
                     std::uint32_t round, std::uint32_t count) {
  for (std::uint32_t i = 0; i < count; ++i) {
    for (std::uint32_t from = 0; from < shards; ++from) {
      for (std::uint32_t to = 0; to < shards; ++to) {
        WireEntry e;
        e.src = ExchangeSrc(round, from, to, i);
        e.batch_pos = i * 7;
        exchange.Push(from, to, e);
      }
    }
  }
}

// Drains every pair and checks it holds exactly its own `count` entries
// in push order, then nothing on a second drain.
void ExpectEveryPairDrainsInPushOrder(ShardExchange& exchange,
                                      std::uint32_t shards,
                                      std::uint32_t round,
                                      std::uint32_t count) {
  std::vector<WireEntry> out;
  for (std::uint32_t from = 0; from < shards; ++from) {
    for (std::uint32_t to = 0; to < shards; ++to) {
      SCOPED_TRACE("round " + std::to_string(round) + " pair (" +
                   std::to_string(from) + ", " + std::to_string(to) + ")");
      exchange.DrainInto(from, to, out);
      ASSERT_EQ(out.size(), count);
      for (std::uint32_t i = 0; i < count; ++i) {
        EXPECT_EQ(out[i].src, ExchangeSrc(round, from, to, i));
        EXPECT_EQ(out[i].batch_pos, i * 7);
      }
      exchange.DrainInto(from, to, out);
      EXPECT_TRUE(out.empty());
    }
  }
}

TEST(ShardExchangeTest, PreservesPushOrderForEveryPair) {
  // 100 entries per pair makes every pair's buffer grow several times
  // while the other pairs are being filled; each pair must still come
  // out in its own push order.
  constexpr std::uint32_t kShards = 3;
  ShardExchange exchange(kShards);
  PushToEveryPair(exchange, kShards, 0, 100);
  ExpectEveryPairDrainsInPushOrder(exchange, kShards, 0, 100);
}

TEST(ShardExchangeTest, DrainThenReuseStaysFifo) {
  // A drained pair carries the next round's entries the same way, with
  // a different number of entries every round.
  constexpr std::uint32_t kShards = 3;
  ShardExchange exchange(kShards);
  for (std::uint32_t round = 0; round < 3; ++round) {
    const std::uint32_t count = 2 + round;
    PushToEveryPair(exchange, kShards, round, count);
    ExpectEveryPairDrainsInPushOrder(exchange, kShards, round, count);
  }
}

// ------------------------------------------- tracing and one shard ---
//
// Bit-identity at every shard count is mst_golden_test's contract: it
// replays every recorded MST row serially and on 2 and 4 shards under
// both policies (and one row on 64 shards, clamped).

TEST(ShardedIdentityTest, TracingRequiresTheSerialEngine) {
  Xoshiro256 rng(62);
  const auto g = MakeRing(4, rng);
  SimulatorOptions opt;
  opt.shards = 2;
  opt.trace = [](const TraceEvent&) {};
  try {
    Simulator sim(g, opt);
    ADD_FAILURE() << "a trace sink was accepted on 2 shards";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("shards >= 2"), std::string::npos)
        << e.what();
  }
}

// Records, per node, the thread each of its steps ran on: every node
// wakes in rounds 1..3 and sends to all its neighbors.
class ThreadProbe final : public FlatProgram {
 public:
  explicit ThreadProbe(const WeightedGraph& g) : g_(&g), steps_(g.NumNodes()) {}

  Round Step(NodeIndex v, Round now, std::span<const InMessage> /*inbox*/,
             SendLane& sends) override {
    if (now != 0) steps_[v].push_back(std::this_thread::get_id());
    if (now == 3) return kFlatDone;
    SendAll(v, sends);
    return now + 1;
  }

  const std::vector<std::vector<std::thread::id>>& Steps() const {
    return steps_;
  }

 private:
  void SendAll(NodeIndex v, SendLane& sends) const {
    for (std::uint32_t p = 0; p < g_->DegreeOf(v); ++p) {
      sends.push_back({p, Message{1, v, 0, 0}});
    }
  }

  const WeightedGraph* g_;
  std::vector<std::vector<std::thread::id>> steps_;
};

TEST(ShardedIdentityTest, OneShardRunsOnTheCallingThreadAndTraces) {
  Xoshiro256 rng(63);
  const auto g = MakeErdosRenyi(12, 0.4, rng);
  const auto run = [&g](std::uint32_t shards) {
    std::vector<TraceEvent> events;
    SimulatorOptions opt;
    opt.shards = shards;
    opt.trace = [&events](const TraceEvent& e) { events.push_back(e); };
    Simulator sim(g, opt);
    ThreadProbe program(g);
    sim.Run(program);
    for (NodeIndex v = 0; v < g.NumNodes(); ++v) {
      EXPECT_EQ(program.Steps()[v],
                std::vector<std::thread::id>(3, std::this_thread::get_id()))
          << "shards " << shards << " node " << v;
    }
    return events;
  };
  const std::vector<TraceEvent> serial = run(0);
  const std::vector<TraceEvent> one_shard = run(1);
  ASSERT_EQ(serial.size(), 3 * g.NumNodes());
  ASSERT_EQ(one_shard.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    const TraceEvent& a = serial[i];
    const TraceEvent& b = one_shard[i];
    EXPECT_EQ(std::tie(a.round, a.node, a.sent, a.received, a.dropped,
                       a.injected_drops, a.injected_delays, a.injected_dups),
              std::tie(b.round, b.node, b.sent, b.received, b.dropped,
                       b.injected_drops, b.injected_delays, b.injected_dups))
        << "event " << i;
  }
}

}  // namespace
}  // namespace smst
