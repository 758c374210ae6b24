// Sharded simulator backend: partitioning, the exchange, the one-shard
// path, and the headline contract — results, metrics, and outcomes are
// bit-identical at every shard count, for both partition policies, both
// MST engines, and with or without an adversary.
#include <cstdint>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "smst/faults/fault_plan.h"
#include "smst/graph/generators.h"
#include "smst/lower_bounds/grc.h"
#include "smst/mst/api.h"
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

// ------------------------------------------------------- bit-identity --

struct Topology {
  std::string name;
  WeightedGraph graph;
};

std::vector<Topology> Topologies() {
  std::vector<Topology> cases;
  {
    Xoshiro256 rng(51);
    cases.push_back({"ring-24", MakeRing(24, rng)});
  }
  {
    Xoshiro256 rng(52);
    cases.push_back({"star-16", MakeStar(16, rng)});
  }
  {
    Xoshiro256 rng(53);
    cases.push_back({"grc-4x8", BuildGrc(4, 8, rng).graph});
  }
  {
    Xoshiro256 rng(54);
    cases.push_back({"er-32", MakeErdosRenyi(32, 0.2, rng)});
  }
  return cases;
}

void ExpectSameLdt(const LdtState& a, const LdtState& b) {
  EXPECT_EQ(a.fragment_id, b.fragment_id);
  EXPECT_EQ(a.level, b.level);
  EXPECT_EQ(a.parent_port, b.parent_port);
  ASSERT_EQ(a.child_ports.size(), b.child_ports.size());
  for (std::size_t i = 0; i < a.child_ports.size(); ++i) {
    EXPECT_EQ(a.child_ports[i], b.child_ports[i]);
  }
}

// Every observable of a run must match: the tree, all aggregate and
// per-node metrics, telemetry, the classified outcome, and the fault
// and audit meters.
void ExpectIdenticalRuns(const MstRunResult& a, const MstRunResult& b) {
  EXPECT_EQ(a.tree_edges, b.tree_edges);
  EXPECT_EQ(a.consistency_error, b.consistency_error);
  EXPECT_EQ(a.phases, b.phases);

  EXPECT_EQ(a.stats.rounds, b.stats.rounds);
  EXPECT_EQ(a.stats.max_awake, b.stats.max_awake);
  EXPECT_EQ(a.stats.avg_awake, b.stats.avg_awake);  // exact, same sums
  EXPECT_EQ(a.stats.total_messages, b.stats.total_messages);
  EXPECT_EQ(a.stats.total_bits, b.stats.total_bits);
  EXPECT_EQ(a.stats.max_message_bits, b.stats.max_message_bits);
  EXPECT_EQ(a.stats.dropped_messages, b.stats.dropped_messages);
  EXPECT_EQ(a.stats.awake_node_rounds, b.stats.awake_node_rounds);

  ASSERT_EQ(a.node_metrics.size(), b.node_metrics.size());
  for (std::size_t v = 0; v < a.node_metrics.size(); ++v) {
    EXPECT_EQ(a.node_metrics[v].awake_rounds, b.node_metrics[v].awake_rounds);
    EXPECT_EQ(a.node_metrics[v].messages_sent,
              b.node_metrics[v].messages_sent);
    EXPECT_EQ(a.node_metrics[v].bits_sent, b.node_metrics[v].bits_sent);
    EXPECT_EQ(a.node_metrics[v].messages_dropped,
              b.node_metrics[v].messages_dropped);
  }
  EXPECT_EQ(a.wake_times, b.wake_times);
  EXPECT_EQ(a.fragments_per_phase, b.fragments_per_phase);
  EXPECT_EQ(a.blue_per_phase, b.blue_per_phase);
  ASSERT_EQ(a.final_ldt.size(), b.final_ldt.size());
  for (std::size_t v = 0; v < a.final_ldt.size(); ++v) {
    ExpectSameLdt(a.final_ldt[v], b.final_ldt[v]);
  }
  ASSERT_EQ(a.forest_per_phase.size(), b.forest_per_phase.size());
  for (std::size_t p = 0; p < a.forest_per_phase.size(); ++p) {
    ASSERT_EQ(a.forest_per_phase[p].size(), b.forest_per_phase[p].size());
    for (std::size_t v = 0; v < a.forest_per_phase[p].size(); ++v) {
      ExpectSameLdt(a.forest_per_phase[p][v], b.forest_per_phase[p][v]);
    }
  }

  EXPECT_EQ(a.outcome.status, b.outcome.status);
  EXPECT_EQ(a.outcome.detail, b.outcome.detail);
  EXPECT_EQ(a.outcome.unfinished_nodes, b.outcome.unfinished_nodes);
  EXPECT_EQ(a.outcome.last_round, b.outcome.last_round);
  EXPECT_EQ(a.outcome.faults.injected_drops, b.outcome.faults.injected_drops);
  EXPECT_EQ(a.outcome.faults.injected_delays,
            b.outcome.faults.injected_delays);
  EXPECT_EQ(a.outcome.faults.delayed_delivered,
            b.outcome.faults.delayed_delivered);
  EXPECT_EQ(a.outcome.faults.delayed_lost, b.outcome.faults.delayed_lost);
  EXPECT_EQ(a.outcome.faults.injected_duplicates,
            b.outcome.faults.injected_duplicates);
  EXPECT_EQ(a.outcome.faults.jittered_wakes, b.outcome.faults.jittered_wakes);
  EXPECT_EQ(a.outcome.faults.suppressed_wakes,
            b.outcome.faults.suppressed_wakes);
  EXPECT_EQ(a.outcome.faults.crashed_nodes, b.outcome.faults.crashed_nodes);
  EXPECT_EQ(a.outcome.audited_awake_node_rounds,
            b.outcome.audited_awake_node_rounds);
  EXPECT_EQ(a.outcome.audited_model_drops, b.outcome.audited_model_drops);
  EXPECT_EQ(a.outcome.audit_violations, b.outcome.audit_violations);
}

MstRunResult RunWith(const WeightedGraph& g, MstAlgorithm algo,
                     std::uint64_t seed, std::uint32_t shards,
                     ShardPolicy policy, const FaultPlan* plan) {
  MstOptions opt;
  opt.seed = seed;
  opt.shards = shards;
  opt.shard_policy = policy;
  opt.fault_plan = plan;
  opt.record_wake_times = true;
  opt.record_forest_snapshots = true;
  return ComputeMst(g, algo, opt);
}

TEST(ShardedIdentityTest, FaultFreeRunsMatchSerialAtEveryShardCount) {
  for (const Topology& c : Topologies()) {
    for (MstAlgorithm algo :
         {MstAlgorithm::kRandomized, MstAlgorithm::kDeterministic}) {
      for (std::uint64_t seed : {1, 5}) {
        const MstRunResult serial =
            RunWith(c.graph, algo, seed, 0, ShardPolicy::kContiguousBlocks,
                    nullptr);
        for (std::uint32_t shards : {1u, 2u, 4u}) {
          for (ShardPolicy policy :
               {ShardPolicy::kContiguousBlocks, ShardPolicy::kRoundRobin}) {
            SCOPED_TRACE(c.name + " " + MstAlgorithmName(algo) + " seed " +
                         std::to_string(seed) + " shards " +
                         std::to_string(shards) + " " +
                         ShardPolicyName(policy));
            ExpectIdenticalRuns(
                serial, RunWith(c.graph, algo, seed, shards, policy, nullptr));
          }
        }
      }
    }
  }
}

TEST(ShardedIdentityTest, FaultedRunsMatchSerialAtEveryShardCount) {
  // Mixed adversary: drops, delays (which cross the delayed-heap path),
  // duplicates, jitter, and crash-stop. The whole classified outcome —
  // including the per-category fault meters — must be shard-invariant.
  const FaultPlan plan =
      ParseFaultPlan("salt=9,drop=0.003,delay=2:0.02,dup=0.01,jitter=2:0.01");
  const FaultPlan crashy = ParseFaultPlan("salt=4,crash=40:0.05,drop=0.002");
  for (const Topology& c : Topologies()) {
    for (const FaultPlan* p : {&plan, &crashy}) {
      for (MstAlgorithm algo :
           {MstAlgorithm::kRandomized, MstAlgorithm::kDeterministic}) {
        const MstRunResult serial = RunWith(
            c.graph, algo, 3, 0, ShardPolicy::kContiguousBlocks, p);
        for (std::uint32_t shards : {2u, 4u}) {
          SCOPED_TRACE(c.name + " " + MstAlgorithmName(algo) + " plan " +
                       p->ToString() + " shards " + std::to_string(shards));
          ExpectIdenticalRuns(
              serial,
              RunWith(c.graph, algo, 3, shards,
                      ShardPolicy::kContiguousBlocks, p));
        }
      }
    }
  }
}

TEST(ShardedIdentityTest, OverProvisionedShardCountClamps) {
  // More shards than nodes: clamped, still identical.
  Xoshiro256 rng(61);
  const auto g = MakeRing(6, rng);
  const MstRunResult serial = RunWith(g, MstAlgorithm::kRandomized, 2, 0,
                                      ShardPolicy::kContiguousBlocks, nullptr);
  ExpectIdenticalRuns(serial,
                      RunWith(g, MstAlgorithm::kRandomized, 2, 64,
                              ShardPolicy::kRoundRobin, nullptr));
}

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

  Round Start(NodeIndex v, FlatEnv& /*env*/, SendBatch& sends) override {
    SendAll(v, sends);
    return 1;
  }
  Round Step(NodeIndex v, Round now, FlatEnv& /*env*/,
             const InboxBatch& /*inbox*/, SendBatch& sends) override {
    steps_[v].push_back(std::this_thread::get_id());
    if (now == 3) return kFlatDone;
    SendAll(v, sends);
    return now + 1;
  }

  const std::vector<std::vector<std::thread::id>>& Steps() const {
    return steps_;
  }

 private:
  void SendAll(NodeIndex v, SendBatch& sends) const {
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
