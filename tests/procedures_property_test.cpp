// Property sweeps for the toolbox procedures over random tree shapes:
// for every (family, size, seed) the results must match a direct
// sequential computation, with the paper's O(1)-awake guarantee.
#include <algorithm>
#include <queue>
#include <vector>

#include <gtest/gtest.h>

#include "smst/graph/generators.h"
#include "smst/runtime/simulator.h"
#include "smst/sleeping/flat_procedures.h"
#include "smst/sleeping/forest_builder.h"

namespace smst {
namespace {

struct TreeFixture {
  WeightedGraph g;
  std::vector<LdtState> states;
  NodeIndex root;

  // A random tree topology (the whole graph is one fragment), rooted at
  // a random node.
  TreeFixture(std::size_t n, std::uint64_t seed, bool caterpillar)
      : g(Make(n, seed, caterpillar)) {
    Xoshiro256 rng(seed * 13 + 5);
    root = static_cast<NodeIndex>(rng.NextBelow(g.NumNodes()));
    std::vector<EdgeIndex> all;
    for (EdgeIndex e = 0; e < g.NumEdges(); ++e) all.push_back(e);
    states = BuildForest(g, all, {root});
  }

  static WeightedGraph Make(std::size_t n, std::uint64_t seed,
                            bool caterpillar) {
    Xoshiro256 rng(seed);
    if (caterpillar) return MakeCaterpillar(n / 2, rng);
    return MakeRandomTree(n, rng);
  }

  // Sequential recomputation of each node's subtree (for oracle checks).
  std::vector<std::vector<NodeIndex>> Subtrees() const {
    std::vector<std::vector<NodeIndex>> subtree(g.NumNodes());
    // Process nodes in decreasing level order.
    std::vector<NodeIndex> order(g.NumNodes());
    for (NodeIndex v = 0; v < g.NumNodes(); ++v) order[v] = v;
    std::sort(order.begin(), order.end(), [&](NodeIndex a, NodeIndex b) {
      return states[a].level > states[b].level;
    });
    for (NodeIndex v : order) {
      subtree[v].push_back(v);
      for (std::uint32_t cp : states[v].child_ports) {
        NodeIndex c = g.PortsOf(v)[cp].neighbor;
        subtree[v].insert(subtree[v].end(), subtree[c].begin(),
                          subtree[c].end());
      }
    }
    return subtree;
  }
};

class ProcedureSweep
    : public ::testing::TestWithParam<std::tuple<int, int, bool>> {};

TEST_P(ProcedureSweep, UpcastMinMatchesOracleEverywhere) {
  auto [size_class, seed, caterpillar] = GetParam();
  const std::size_t n = size_class == 0 ? 12 : (size_class == 1 ? 33 : 70);
  TreeFixture fx(n, seed, caterpillar);
  ASSERT_EQ(CheckForestInvariant(fx.g, fx.states), "");

  // Random values at a random subset of nodes.
  Xoshiro256 rng(seed * 101);
  std::vector<UpcastItem> own(fx.g.NumNodes());
  for (NodeIndex v = 0; v < fx.g.NumNodes(); ++v) {
    if (rng.NextDouble() < 0.5) {
      own[v] = UpcastItem{rng.NextBelow(1000), v, 0};
    }
  }
  ProcedureProgram<FlatUpcastMin> program(
      fx.g, [&](const FlatNodeRef& node, FlatUpcastMin& proc,
                SendLane& sends) {
        return proc.Begin(node, fx.states[node.v], 1, own[node.v], sends);
      });
  Simulator sim(fx.g);
  sim.Run(program);

  // Oracle: every node's result is the min over its subtree.
  auto subtree = fx.Subtrees();
  for (NodeIndex v = 0; v < fx.g.NumNodes(); ++v) {
    UpcastItem expected;
    for (NodeIndex u : subtree[v]) {
      if (own[u] < expected) expected = own[u];
    }
    EXPECT_EQ(program[v].best.key, expected.key) << "node " << v;
    EXPECT_EQ(program[v].best.b, expected.b) << "node " << v;
  }
  EXPECT_LE(sim.Stats().max_awake, 2u);
  EXPECT_EQ(sim.Stats().dropped_messages, 0u);
}

TEST_P(ProcedureSweep, UpcastSumMatchesOracleEverywhere) {
  auto [size_class, seed, caterpillar] = GetParam();
  const std::size_t n = size_class == 0 ? 12 : (size_class == 1 ? 33 : 70);
  TreeFixture fx(n, seed, caterpillar);

  Xoshiro256 rng(seed * 103);
  std::vector<std::uint64_t> own(fx.g.NumNodes());
  for (auto& v : own) v = rng.NextBelow(5);
  ProcedureProgram<FlatUpcastSum> program(
      fx.g, [&](const FlatNodeRef& node, FlatUpcastSum& proc,
                SendLane& sends) {
        return proc.Begin(node, fx.states[node.v], 1, own[node.v], sends);
      });
  Simulator sim(fx.g);
  sim.Run(program);

  auto subtree = fx.Subtrees();
  for (NodeIndex v = 0; v < fx.g.NumNodes(); ++v) {
    const UpcastSumResult& result = program[v].result;
    std::uint64_t expected = 0;
    for (NodeIndex u : subtree[v]) expected += own[u];
    EXPECT_EQ(result.subtree_total, expected) << "node " << v;
    // Child breakdown sums to the total minus own.
    std::uint64_t child_sum = 0;
    for (auto [port, total] : result.child_totals) child_sum += total;
    EXPECT_EQ(child_sum + own[v], expected);
  }
  EXPECT_LE(sim.Stats().max_awake, 2u);
}

TEST_P(ProcedureSweep, BroadcastReachesAllAtO1Awake) {
  auto [size_class, seed, caterpillar] = GetParam();
  const std::size_t n = size_class == 0 ? 12 : (size_class == 1 ? 33 : 70);
  TreeFixture fx(n, seed, caterpillar);

  ProcedureProgram<FlatBroadcast> program(
      fx.g, [&](const FlatNodeRef& node, FlatBroadcast& proc,
                SendLane& sends) {
        return proc.Begin(node, fx.states[node.v], 1, Message{9, 7777, 0, 0},
                          sends);
      });
  Simulator sim(fx.g);
  sim.Run(program);
  for (NodeIndex v = 0; v < fx.g.NumNodes(); ++v) {
    EXPECT_EQ(program[v].msg.a, 7777u);
  }
  EXPECT_LE(sim.Stats().max_awake, 2u);
  EXPECT_LE(sim.Stats().rounds, ScheduleBlockLength(fx.g.NumNodes()));
  EXPECT_EQ(sim.Stats().dropped_messages, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ProcedureSweep,
    ::testing::Combine(::testing::Range(0, 3), ::testing::Values(1, 2, 3, 4),
                       ::testing::Bool()));

TEST(ProcedureSpanTest, SmallerSpanSameResultsFewerRounds) {
  // A shallow tree scheduled with a tight span behaves identically.
  Xoshiro256 rng(5);
  GeneratorOptions opt;
  opt.shuffle_ids = false;
  auto g = MakeStar(40, rng, opt);  // depth 1
  std::vector<EdgeIndex> all;
  for (EdgeIndex e = 0; e < g.NumEdges(); ++e) all.push_back(e);
  auto states = BuildForest(g, all, {0});

  for (std::size_t span : {2u, 40u}) {
    ProcedureProgram<FlatBroadcast> program(
        g, [&](const FlatNodeRef& node, FlatBroadcast& proc,
               SendLane& sends) {
          return proc.Begin(node, states[node.v], 1, Message{9, 123, 0, 0},
                            sends, span);
        });
    Simulator sim(g);
    sim.Run(program);
    for (NodeIndex v = 0; v < g.NumNodes(); ++v) {
      EXPECT_EQ(program[v].msg.a, 123u);
    }
    EXPECT_LE(sim.Stats().rounds, ScheduleBlockLength(span));
  }
}

}  // namespace
}  // namespace smst
