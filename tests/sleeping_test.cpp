// Tests for the sleeping-model toolbox: schedule arithmetic, the four
// Appendix-B procedures, Merging-Fragments, and Fast-Awake-Coloring —
// including the paper's O(1)-awake guarantees. Each procedure runs as
// its flat sub-machine, one instance per node (ProcedureProgram).
#include <map>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "smst/graph/generators.h"
#include "smst/runtime/simulator.h"
#include "smst/sleeping/flat_procedures.h"
#include "smst/sleeping/ldt.h"
#include "smst/sleeping/schedule.h"
#include "tests/test_util.h"

namespace smst {
namespace {

using testing::BuildForest;
using testing::PortTo;

// ---------------------------------------------------------- Schedule ---

TEST(ScheduleTest, PaperRoundNames) {
  // Paper (block started at round 1, n nodes): non-root at distance i has
  // rounds i, i+1, n+1, 2n-i+1, 2n-i+2.
  const std::size_t n = 10;
  const auto r = TransmissionSchedule(1, 3, n);
  EXPECT_EQ(r.down_receive, 3u);
  EXPECT_EQ(r.down_send, 4u);
  EXPECT_EQ(r.side, 11u);           // n+1
  EXPECT_EQ(r.up_receive, 18u);     // 2n-i+1
  EXPECT_EQ(r.up_send, 19u);        // 2n-i+2
}

TEST(ScheduleTest, RootRounds) {
  const auto r = TransmissionSchedule(1, 0, 10);
  EXPECT_EQ(r.down_send, 1u);
  EXPECT_EQ(r.side, 11u);
  EXPECT_EQ(r.up_receive, 21u);  // 2n+1
}

TEST(ScheduleTest, ShiftedBlockStart) {
  const auto base = TransmissionSchedule(1, 2, 8);
  const auto shifted = TransmissionSchedule(101, 2, 8);
  EXPECT_EQ(shifted.down_receive, base.down_receive + 100);
  EXPECT_EQ(shifted.up_send, base.up_send + 100);
}

TEST(ScheduleTest, ParentChildRoundsMesh) {
  // Parent's Down-Send == child's Down-Receive; child's Up-Send ==
  // parent's Up-Receive — for every level.
  const std::size_t n = 20;
  for (std::uint64_t lvl = 1; lvl < n; ++lvl) {
    auto child = TransmissionSchedule(7, lvl, n);
    auto parent = TransmissionSchedule(7, lvl - 1, n);
    EXPECT_EQ(parent.down_send, child.down_receive);
    EXPECT_EQ(child.up_send, parent.up_receive);
  }
}

TEST(ScheduleTest, AllRoundsWithinBlock) {
  const std::size_t n = 9;
  const Round start = 50;
  for (std::uint64_t lvl = 0; lvl < n; ++lvl) {
    auto r = TransmissionSchedule(start, lvl, n);
    for (Round x : {r.down_send, r.side, r.up_receive}) {
      EXPECT_GE(x, start);
      EXPECT_LT(x, start + ScheduleBlockLength(n));
    }
  }
}

TEST(ScheduleTest, BlockCursorAdvances) {
  BlockCursor c(1, 5);
  EXPECT_EQ(c.TakeBlock(), 1u);
  EXPECT_EQ(c.TakeBlock(), 12u);  // 2*5+1 later
  c.SkipBlocks(3);
  EXPECT_EQ(c.TakeBlock(), 56u);
  EXPECT_EQ(c.NextRound(), 67u);
}

// ------------------------------------------------ Procedure fixtures ---

// A 6-node graph: path 0-1-2-3 plus 4 and 5 hanging off node 1 and 3.
// One fragment rooted at 0.
struct SingleTreeFixture {
  WeightedGraph g;
  std::vector<LdtState> states;

  SingleTreeFixture() : g(Build()) {
    states = BuildForest(g, {0, 1, 2, 3, 4}, {0});
  }

  static WeightedGraph Build() {
    GraphBuilder b(6);
    b.AddEdge(0, 1, 1).AddEdge(1, 2, 2).AddEdge(2, 3, 3).AddEdge(1, 4, 4)
        .AddEdge(3, 5, 5);
    return std::move(b).Build();
  }
};

TEST(FragmentBroadcastTest, ReachesEveryNodeInO1Awake) {
  SingleTreeFixture fx;
  ASSERT_EQ(CheckForestInvariant(fx.g, fx.states), "");
  ProcedureProgram<FlatBroadcast> program(
      fx.g, [&](const FlatNodeRef& node, FlatBroadcast& proc,
                SendLane& sends) {
        return proc.Begin(node, fx.states[node.v], 1, Message{100, 4242, 0, 0},
                          sends);
      });
  Simulator sim(fx.g);
  sim.Run(program);
  for (NodeIndex v = 0; v < 6; ++v) EXPECT_EQ(program[v].msg.a, 4242u);
  auto stats = sim.Stats();
  EXPECT_LE(stats.max_awake, 2u);                       // O(1) awake
  EXPECT_LE(stats.rounds, ScheduleBlockLength(6));      // O(n) run time
}

// Runs Upcast-Min once over the fixture's tree with the given offers.
ProcedureProgram<FlatUpcastMin> UpcastProgram(
    const SingleTreeFixture& fx, const std::vector<UpcastItem>& own) {
  return ProcedureProgram<FlatUpcastMin>(
      fx.g, [&](const FlatNodeRef& node, FlatUpcastMin& proc,
                SendLane& sends) {
        return proc.Begin(node, fx.states[node.v], 1, own[node.v], sends);
      });
}

TEST(UpcastMinTest, MinReachesRootWithPayload) {
  SingleTreeFixture fx;
  std::vector<UpcastItem> own(6);
  own[0] = {50, 1, 1};
  own[2] = {30, 2, 2};
  own[5] = {10, 3, 3};  // global min at a leaf, deep in the tree
  own[4] = {40, 4, 4};
  auto program = UpcastProgram(fx, own);
  Simulator sim(fx.g);
  sim.Run(program);
  EXPECT_EQ(program[0].best.key, 10u);
  EXPECT_EQ(program[0].best.b, 3u);
  EXPECT_EQ(program[0].best.c, 3u);
  // Intermediate node 3 sees the min of its subtree {3, 5}.
  EXPECT_EQ(program[3].best.key, 10u);
  // Node 4's subtree is itself.
  EXPECT_EQ(program[4].best.key, 40u);
  EXPECT_LE(sim.Stats().max_awake, 2u);
}

TEST(UpcastMinTest, AllAbsentYieldsAbsentAtRoot) {
  SingleTreeFixture fx;
  std::vector<UpcastItem> own(6);  // all absent
  auto program = UpcastProgram(fx, own);
  Simulator sim(fx.g);
  sim.Run(program);
  EXPECT_TRUE(program[0].best.Absent());
  // Nothing needed to be sent at all.
  EXPECT_EQ(sim.Stats().total_messages, 0u);
}

TEST(UpcastSumTest, TotalsAndPerChildBreakdown) {
  SingleTreeFixture fx;
  std::vector<std::uint64_t> own{1, 0, 2, 0, 5, 3};
  ProcedureProgram<FlatUpcastSum> program(
      fx.g, [&](const FlatNodeRef& node, FlatUpcastSum& proc,
                SendLane& sends) {
        return proc.Begin(node, fx.states[node.v], 1, own[node.v], sends);
      });
  Simulator sim(fx.g);
  sim.Run(program);
  EXPECT_EQ(program[0].result.subtree_total, 11u);  // all
  EXPECT_EQ(program[1].result.subtree_total, 10u);  // {1,2,3,4,5}
  // Node 1's children: node 2 (subtree {2,3,5} = 5) and node 4 (5).
  const auto& child_totals = program[1].result.child_totals;
  std::map<std::uint32_t, std::uint64_t> by_port(child_totals.begin(),
                                                 child_totals.end());
  EXPECT_EQ(by_port[PortTo(fx.g, 1, 2)], 5u);
  EXPECT_EQ(by_port[PortTo(fx.g, 1, 4)], 5u);
  EXPECT_LE(sim.Stats().max_awake, 2u);
}

// Two fragments on a path 0-1 | 2-3 (edge 1-2 crosses).
struct TwoFragmentFixture {
  WeightedGraph g;
  std::vector<LdtState> states;

  TwoFragmentFixture() : g(Build()) {
    states = BuildForest(g, {0, 2}, {0, 2});  // edges (0,1) and (2,3)
  }

  static WeightedGraph Build() {
    GraphBuilder b(4);
    b.AddEdge(0, 1, 1).AddEdge(1, 2, 2).AddEdge(2, 3, 3);
    return std::move(b).Build();
  }
};

// Transmit-Adjacent is one awake round in the block's Side slot; this
// sub-machine keeps what arrived.
struct SideRound {
  std::vector<InMessage> got;
  Round Resume(const FlatNodeRef& /*node*/, std::span<const InMessage> inbox,
               SendLane& /*sends*/) {
    got.assign(inbox.begin(), inbox.end());
    return kFlatDone;
  }
};

TEST(TransmitAdjacentTest, CrossFragmentExchangeInOneAwakeRound) {
  TwoFragmentFixture fx;
  ASSERT_EQ(CheckForestInvariant(fx.g, fx.states), "");
  ProcedureProgram<SideRound> program(
      fx.g, [&](const FlatNodeRef& node, SideRound& /*proc*/,
                SendLane& sends) {
        // Everyone announces its fragment ID on every port.
        const LdtState& ldt = fx.states[node.v];
        for (std::uint32_t p = 0; p < node.Degree(); ++p) {
          sends.push_back({p, Message{7, ldt.fragment_id, 0, 0}});
        }
        return TransmissionSchedule(1, ldt.level, node.NumNodesKnown()).side;
      });
  Simulator sim(fx.g);
  sim.Run(program);
  // Node 1 (fragment 1) hears fragment 3's ID from node 2 and vice versa.
  bool node1_heard_frag3 = false;
  for (const auto& m : program[1].got) node1_heard_frag3 |= m.msg.a == 3;
  EXPECT_TRUE(node1_heard_frag3);
  bool node2_heard_frag1 = false;
  for (const auto& m : program[2].got) node2_heard_frag1 |= m.msg.a == 1;
  EXPECT_TRUE(node2_heard_frag1);
  EXPECT_EQ(sim.Stats().max_awake, 1u);
}

// ------------------------------------------------- Merging-Fragments ---

struct MergeHarness {
  WeightedGraph g;
  std::vector<LdtState> states;
  std::vector<MergeRole> roles;
  std::vector<std::vector<std::uint8_t>> mst_marks;

  MergeHarness(WeightedGraph graph, std::vector<LdtState> s)
      : g(std::move(graph)), states(std::move(s)), roles(g.NumNodes()) {
    for (NodeIndex v = 0; v < g.NumNodes(); ++v) {
      mst_marks.emplace_back(g.DegreeOf(v), 0);
    }
  }

  void Run() {
    ProcedureProgram<FlatMerge> program(
        g, [this](const FlatNodeRef& node, FlatMerge& proc,
                  SendLane& sends) {
          BlockCursor cursor(1, node.NumNodesKnown());
          return proc.Begin(node, states[node.v], cursor, roles[node.v],
                            mst_marks[node.v], sends);
        });
    Simulator sim(g);
    sim.Run(program);
    stats = sim.Stats();
  }

  RunStats stats;
};

TEST(MergingFragmentsTest, SimpleAttachPreservesInvariant) {
  // Fragments {0,1} rooted at 0 and {2,3} rooted at 2; tails fragment
  // {2,3} attaches via edge (1,2): u_T = node 2 (its root).
  TwoFragmentFixture fx;
  MergeHarness h(fx.g, fx.states);
  for (NodeIndex v : {2u, 3u}) h.roles[v].is_tails = true;
  h.roles[2].attach_port = PortTo(fx.g, 2, 1);
  h.Run();

  EXPECT_EQ(CheckForestInvariant(h.g, h.states), "");
  for (NodeIndex v = 0; v < 4; ++v) EXPECT_EQ(h.states[v].fragment_id, 1u);
  EXPECT_EQ(h.states[2].level, 2u);
  EXPECT_EQ(h.states[3].level, 3u);
  EXPECT_TRUE(h.states[0].IsRoot());
  // Both endpoints marked the merge edge (1,2).
  EXPECT_TRUE(h.mst_marks[1][PortTo(fx.g, 1, 2)]);
  EXPECT_TRUE(h.mst_marks[2][PortTo(fx.g, 2, 1)]);
  EXPECT_LE(h.stats.max_awake, 5u);
  EXPECT_LE(h.stats.rounds, kMergeBlocks * ScheduleBlockLength(4));
}

TEST(MergingFragmentsTest, FullPathReversal) {
  // Tails fragment is a chain 2-3-4-5 rooted at 5; u_T = node 2 (the far
  // end), so the whole chain must re-orient (the Appendix C scenario).
  GraphBuilder b(6);
  b.AddEdge(0, 1, 1).AddEdge(1, 2, 2).AddEdge(2, 3, 3).AddEdge(3, 4, 4)
      .AddEdge(4, 5, 5);
  auto g = std::move(b).Build();
  auto states = BuildForest(g, {0, 2, 3, 4}, {0, 5});
  ASSERT_EQ(states[2].level, 3u);  // chain depth under root 5

  MergeHarness h(std::move(g), std::move(states));
  for (NodeIndex v : {2u, 3u, 4u, 5u}) h.roles[v].is_tails = true;
  h.roles[2].attach_port = PortTo(h.g, 2, 1);
  h.Run();

  EXPECT_EQ(CheckForestInvariant(h.g, h.states), "");
  for (NodeIndex v = 0; v < 6; ++v) {
    EXPECT_EQ(h.states[v].fragment_id, 1u);
    EXPECT_EQ(h.states[v].level, v);  // path graph: level == index
  }
  EXPECT_LE(h.stats.max_awake, 5u);
}

TEST(MergingFragmentsTest, StarMergeManyTailsIntoOneHeads) {
  // Heads fragment {0}; three tails singleton fragments {1}, {2}, {3},
  // all attaching to node 0 simultaneously.
  GraphBuilder b(4);
  b.AddEdge(0, 1, 1).AddEdge(0, 2, 2).AddEdge(0, 3, 3);
  auto g = std::move(b).Build();
  auto states = BuildForest(g, {}, {0, 1, 2, 3});

  MergeHarness h(std::move(g), std::move(states));
  for (NodeIndex v : {1u, 2u, 3u}) {
    h.roles[v].is_tails = true;
    h.roles[v].attach_port = 0;  // their only port leads to node 0
  }
  h.Run();

  EXPECT_EQ(CheckForestInvariant(h.g, h.states), "");
  EXPECT_EQ(h.states[0].child_ports.size(), 3u);
  for (NodeIndex v : {1u, 2u, 3u}) {
    EXPECT_EQ(h.states[v].fragment_id, 1u);
    EXPECT_EQ(h.states[v].level, 1u);
  }
}

TEST(MergingFragmentsTest, TailsWithBranchesReorientsOffPathSubtrees) {
  // Tails fragment: star around node 3 (children 2, 4, 5) rooted at 4;
  // u_T = node 2 attaches to heads {0,1}. Off-path nodes 4, 5 must adopt
  // levels through the down pass.
  GraphBuilder b(6);
  b.AddEdge(0, 1, 1).AddEdge(1, 2, 2).AddEdge(2, 3, 3).AddEdge(3, 4, 4)
      .AddEdge(3, 5, 5);
  auto g = std::move(b).Build();
  auto states = BuildForest(g, {0, 2, 3, 4}, {0, 4});
  MergeHarness h(std::move(g), std::move(states));
  for (NodeIndex v : {2u, 3u, 4u, 5u}) h.roles[v].is_tails = true;
  h.roles[2].attach_port = PortTo(h.g, 2, 1);
  h.Run();

  EXPECT_EQ(CheckForestInvariant(h.g, h.states), "");
  EXPECT_EQ(h.states[2].level, 2u);
  EXPECT_EQ(h.states[3].level, 3u);
  EXPECT_EQ(h.states[4].level, 4u);
  EXPECT_EQ(h.states[5].level, 4u);
}

TEST(MergingFragmentsTest, HeadsOnlyRunCostsOneAwakeRound) {
  // No fragment merges: everyone participates in sub-block A only.
  TwoFragmentFixture fx;
  MergeHarness h(fx.g, fx.states);
  h.Run();
  EXPECT_EQ(CheckForestInvariant(h.g, h.states), "");
  EXPECT_EQ(h.states[2].fragment_id, 3u);  // unchanged
  EXPECT_EQ(h.stats.max_awake, 1u);
}

// ---------------------------------------------- Fast-Awake-Coloring ----

// Harness: fragments are singleton nodes; the H-edges are given edges of
// the graph (simulating valid MOEs between singleton fragments).
struct ColoringHarness {
  WeightedGraph g;
  std::vector<LdtState> states;
  std::vector<std::vector<NbrEntry>> nbr;
  std::vector<std::vector<HPort>> h_ports;
  std::vector<ColoringResult> results;

  explicit ColoringHarness(WeightedGraph graph, const std::vector<EdgeIndex>& h_edges)
      : g(std::move(graph)), nbr(g.NumNodes()), h_ports(g.NumNodes()),
        results(g.NumNodes()) {
    std::vector<NodeIndex> roots;
    for (NodeIndex v = 0; v < g.NumNodes(); ++v) roots.push_back(v);
    states = BuildForest(g, {}, roots);
    for (EdgeIndex e : h_edges) {
      const Edge& edge = g.GetEdge(e);
      nbr[edge.u].push_back({g.IdOf(edge.v), edge.weight, true});
      nbr[edge.v].push_back({g.IdOf(edge.u), edge.weight, false});
      h_ports[edge.u].push_back({PortTo(g, edge.u, edge.v), g.IdOf(edge.v)});
      h_ports[edge.v].push_back({PortTo(g, edge.v, edge.u), g.IdOf(edge.u)});
    }
  }

  void Run() {
    ProcedureProgram<FlatColoring> program(
        g, [this](const FlatNodeRef& node, FlatColoring& proc,
                  SendLane& sends) {
          BlockCursor cursor(1, node.NumNodesKnown());
          return proc.Begin(node, states[node.v], cursor, nbr[node.v],
                            h_ports[node.v], sends);
        });
    Simulator sim(g);
    sim.Run(program);
    for (NodeIndex v = 0; v < g.NumNodes(); ++v) {
      results[v] = program[v].result;
    }
    stats = sim.Stats();
  }

  RunStats stats;
};

TEST(FastAwakeColoringTest, PathIsProperlyColoredWithBluePresent) {
  Xoshiro256 rng(1);
  GeneratorOptions opt;
  opt.shuffle_ids = false;
  auto g = MakePath(8, rng, opt);
  std::vector<EdgeIndex> h_edges;
  for (EdgeIndex e = 0; e < g.NumEdges(); ++e) h_edges.push_back(e);
  ColoringHarness h(std::move(g), h_edges);
  h.Run();

  int blue = 0;
  for (NodeIndex v = 0; v < h.g.NumNodes(); ++v) {
    EXPECT_NE(h.results[v].my_color, FragColor::kNone);
    blue += h.results[v].my_color == FragColor::kBlue ? 1 : 0;
    // Proper: no H-neighbor has my color.
    for (const HPort& hp : h.h_ports[v]) {
      NodeIndex u = h.g.PortsOf(v)[hp.port].neighbor;
      EXPECT_NE(h.results[v].my_color, h.results[u].my_color);
    }
    // neighbor_colors agrees with the neighbors' actual colors.
    for (const auto& [id, color] : h.results[v].neighbor_colors) {
      EXPECT_EQ(color, h.results[h.g.IndexOfId(id)].my_color);
    }
  }
  EXPECT_GE(blue, 1);
  // Smallest-ID fragment always picks Blue.
  EXPECT_EQ(h.results[h.g.IndexOfId(1)].my_color, FragColor::kBlue);
}

TEST(FastAwakeColoringTest, Degree4StarUsesDistinctColors) {
  Xoshiro256 rng(2);
  GeneratorOptions opt;
  opt.shuffle_ids = false;
  auto g = MakeStar(5, rng, opt);  // center degree 4
  std::vector<EdgeIndex> h_edges{0, 1, 2, 3};
  ColoringHarness h(std::move(g), h_edges);
  h.Run();
  for (NodeIndex leaf = 1; leaf < 5; ++leaf) {
    EXPECT_NE(h.results[0].my_color, h.results[leaf].my_color);
  }
}

TEST(FastAwakeColoringTest, IsolatedFragmentPicksBlueAndSleepsCheaply) {
  Xoshiro256 rng(3);
  GeneratorOptions opt;
  opt.shuffle_ids = false;
  auto g = MakePath(4, rng, opt);
  ColoringHarness h(std::move(g), {});  // no H-edges at all
  h.Run();
  for (NodeIndex v = 0; v < 4; ++v) {
    EXPECT_EQ(h.results[v].my_color, FragColor::kBlue);
  }
  // Each node only ran its own trivial stage.
  EXPECT_LE(h.stats.max_awake, 3u);
}

TEST(FastAwakeColoringTest, AwakeTimeIsConstantPerNode) {
  Xoshiro256 rng(4);
  GeneratorOptions opt;
  opt.shuffle_ids = false;
  auto g = MakeRing(12, rng, opt);
  std::vector<EdgeIndex> h_edges;
  for (EdgeIndex e = 0; e < g.NumEdges(); ++e) h_edges.push_back(e);
  ColoringHarness h(std::move(g), h_edges);
  h.Run();
  // <= 5 stages x <= 9 wakes, independent of n and N.
  EXPECT_LE(h.stats.max_awake, 45u);
  // Run time spans the full N * 5 blocks (structurally O(nN)).
  EXPECT_LE(h.stats.rounds,
            12u * kColoringBlocksPerStage * ScheduleBlockLength(12));
}

TEST(FastAwakeColoringTest, SparseIdsStillWork) {
  // IDs in [1, 40] on 6 fragments: stages of absent IDs are empty.
  GraphBuilder b(6);
  b.AddEdge(0, 1, 1).AddEdge(1, 2, 2).AddEdge(2, 3, 3).AddEdge(3, 4, 4)
      .AddEdge(4, 5, 5);
  b.SetIds({40, 3, 17, 8, 25, 11}, 40);
  auto g = std::move(b).Build();
  std::vector<EdgeIndex> h_edges{0, 1, 2, 3, 4};
  ColoringHarness h(std::move(g), h_edges);
  h.Run();
  for (NodeIndex v = 0; v + 1 < 6; ++v) {
    EXPECT_NE(h.results[v].my_color, h.results[v + 1].my_color);
  }
  // Fragment with the smallest ID (node 1, ID 3) goes first: Blue.
  EXPECT_EQ(h.results[1].my_color, FragColor::kBlue);
}

// -------------------------------------------------- Forest invariant ---

TEST(ForestInvariantTest, DetectsBadLevel) {
  TwoFragmentFixture fx;
  fx.states[1].level = 7;
  EXPECT_NE(CheckForestInvariant(fx.g, fx.states), "");
}

TEST(ForestInvariantTest, DetectsWrongFragmentId) {
  TwoFragmentFixture fx;
  fx.states[3].fragment_id = 999;
  EXPECT_NE(CheckForestInvariant(fx.g, fx.states), "");
}

TEST(ForestInvariantTest, DetectsAsymmetricPointers) {
  TwoFragmentFixture fx;
  fx.states[0].child_ports.clear();  // parent no longer lists child
  EXPECT_NE(CheckForestInvariant(fx.g, fx.states), "");
}

TEST(ForestInvariantTest, DetectsNonRootFragmentId) {
  TwoFragmentFixture fx;
  // Make node 1 a root of its own while node 0 still claims it.
  fx.states[1].parent_port = kNoPort;
  fx.states[1].level = 0;
  EXPECT_NE(CheckForestInvariant(fx.g, fx.states), "");
}

}  // namespace
}  // namespace smst
