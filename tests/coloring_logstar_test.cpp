// Unit tests for the Corollary-1 log* coloring: Cole-Vishkin iteration
// counts, properness on adversarial fragment graphs, the mover
// (local-minimum) rule, and the O(log* n) awake property.
#include <cmath>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "smst/faults/run_outcome.h"
#include "smst/graph/generators.h"
#include "smst/runtime/simulator.h"
#include "smst/sleeping/flat_procedures.h"
#include "smst/sleeping/forest_builder.h"
#include "tests/test_util.h"

namespace smst {
namespace {

TEST(LogStarParamsTest, CvIterationCounts) {
  // Bound sequence: B -> 2*(bit_width(B)-1)+1 until <= 5.
  EXPECT_EQ(LogStarCvIterations(5), 1u);   // already small: one defensive pass
  EXPECT_EQ(LogStarCvIterations(7), 1u);   // 7 -> 5
  EXPECT_EQ(LogStarCvIterations(100), 3u); // 100 -> 13 -> 7 -> 5
  EXPECT_EQ(LogStarCvIterations(1u << 20), 4u);  // ~2^20 -> 41 -> 11 -> 7 -> 5
  // log*-ish growth: doubling the exponent adds at most one iteration.
  EXPECT_LE(LogStarCvIterations(NodeId{1} << 40),
            LogStarCvIterations(NodeId{1} << 20) + 1);
}

TEST(LogStarParamsTest, BlockCountIsNIndependent) {
  EXPECT_EQ(LogStarColoringBlocks(100, 1000), LogStarColoringBlocks(10000, 1000));
  // ... and only log*-grows with N.
  EXPECT_LE(LogStarColoringBlocks(100, NodeId{1} << 40),
            LogStarColoringBlocks(100, 64) + 5 * 9);
}

// Runs FlatLogStarColoring on every node with H-neighbors; isolated
// fragments skip the coloring, as in Deterministic-MST, and keep a
// default result. The cursors outlive the run: the machine advances
// them across its suspensions.
std::vector<LogStarResult> RunLogStar(
    const WeightedGraph& g, const std::vector<LdtState>& states,
    const std::vector<std::vector<NbrEntry>>& nbr,
    const std::vector<std::vector<HPort>>& h_ports, RunStats* stats) {
  std::vector<BlockCursor> cursors(g.NumNodes(),
                                   BlockCursor(1, g.NumNodes()));
  const std::uint32_t iters = LogStarCvIterations(g.MaxId());
  ProcedureProgram<FlatLogStarColoring> program(
      g, [&](const FlatNodeRef& node, FlatLogStarColoring& proc,
             SendLane& sends) -> Round {
        if (nbr[node.v].empty()) return kFlatDone;
        return proc.Begin(node, states[node.v], cursors[node.v], nbr[node.v],
                          h_ports[node.v], iters, sends);
      });
  Simulator sim(g);
  sim.Run(program);
  if (stats != nullptr) *stats = sim.Stats();
  std::vector<LogStarResult> results(g.NumNodes());
  for (NodeIndex v = 0; v < g.NumNodes(); ++v) results[v] = program[v].result;
  return results;
}

// Harness: singleton-node fragments, H-edges = chosen graph edges
// (mirrors the Fast-Awake-Coloring test harness).
struct LogStarHarness {
  WeightedGraph g;
  std::vector<LdtState> states;
  std::vector<std::vector<NbrEntry>> nbr;
  std::vector<std::vector<HPort>> h_ports;
  std::vector<LogStarResult> results;
  RunStats stats;

  LogStarHarness(WeightedGraph graph, const std::vector<EdgeIndex>& h_edges)
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

  void Run() { results = RunLogStar(g, states, nbr, h_ports, &stats); }

  void ExpectProper(const std::vector<EdgeIndex>& h_edges) {
    for (EdgeIndex e : h_edges) {
      const Edge& edge = g.GetEdge(e);
      EXPECT_NE(results[edge.u].my_color, results[edge.v].my_color)
          << "edge " << e;
      EXPECT_LE(results[edge.u].my_color, 4u);
      EXPECT_LE(results[edge.v].my_color, 4u);
      // Mutual knowledge is consistent.
      EXPECT_EQ(results[edge.u].neighbor_colors.at(g.IdOf(edge.v)),
                results[edge.v].my_color);
      EXPECT_EQ(results[edge.v].neighbor_colors.at(g.IdOf(edge.u)),
                results[edge.u].my_color);
    }
  }
};

std::vector<EdgeIndex> AllEdges(const WeightedGraph& g) {
  std::vector<EdgeIndex> v;
  for (EdgeIndex e = 0; e < g.NumEdges(); ++e) v.push_back(e);
  return v;
}

TEST(LogStarColoringTest, PathIsProper) {
  Xoshiro256 rng(1);
  GeneratorOptions opt;
  opt.shuffle_ids = false;
  auto g = MakePath(16, rng, opt);
  auto edges = AllEdges(g);
  LogStarHarness h(std::move(g), edges);
  h.Run();
  h.ExpectProper(edges);
}

TEST(LogStarColoringTest, RingIsProper) {
  // Rings exercise the case with no forest roots in some pseudoforests.
  Xoshiro256 rng(2);
  GeneratorOptions opt;
  opt.shuffle_ids = false;
  auto g = MakeRing(17, rng, opt);  // odd ring: needs >= 3 colors
  auto edges = AllEdges(g);
  LogStarHarness h(std::move(g), edges);
  h.Run();
  h.ExpectProper(edges);
}

TEST(LogStarColoringTest, Degree4StarIsProper) {
  Xoshiro256 rng(3);
  GeneratorOptions opt;
  opt.shuffle_ids = false;
  auto g = MakeStar(5, rng, opt);
  auto edges = AllEdges(g);
  LogStarHarness h(std::move(g), edges);
  h.Run();
  h.ExpectProper(edges);
}

TEST(LogStarColoringTest, GridWithShuffledSparseIds) {
  Xoshiro256 rng(4);
  GeneratorOptions opt;
  opt.max_id = 4096;  // sparse IDs: big initial CV colors
  auto g = MakeGrid(4, 5, rng, opt);
  auto edges = AllEdges(g);
  LogStarHarness h(std::move(g), edges);
  h.Run();
  h.ExpectProper(edges);
}

TEST(LogStarColoringTest, MoversAreIndependentAndPresent) {
  Xoshiro256 rng(5);
  GeneratorOptions opt;
  opt.shuffle_ids = false;
  auto g = MakeRing(12, rng, opt);
  auto edges = AllEdges(g);
  LogStarHarness h(std::move(g), edges);
  h.Run();
  int movers = 0;
  for (NodeIndex v = 0; v < 12; ++v) {
    if (!h.results[v].IsMover()) continue;
    ++movers;
    // No H-neighbor is also a mover (strict minima are independent).
    for (const HPort& hp : h.h_ports[v]) {
      NodeIndex u = h.g.PortsOf(v)[hp.port].neighbor;
      EXPECT_FALSE(h.results[u].IsMover());
    }
  }
  EXPECT_GE(movers, 1);  // every component has its color minimum
}

TEST(LogStarColoringTest, AwakeIsLogStarNotLinear) {
  // Awake rounds stay bounded as N grows 64x (contrast: Fast-Awake-
  // Coloring stage membership stays O(1) too, but its *round* count
  // grows with N; here both stay put).
  std::vector<std::uint64_t> awake;
  for (NodeId N : {32u, 2048u}) {
    GraphBuilder b(8);
    for (NodeIndex v = 0; v + 1 < 8; ++v) b.AddEdge(v, v + 1, v + 1);
    std::vector<NodeId> ids;
    for (NodeId i = 1; i <= 8; ++i) ids.push_back(i * (N / 8));
    b.SetIds(ids, N);
    auto g = std::move(b).Build();
    auto edges = AllEdges(g);
    LogStarHarness h(std::move(g), edges);
    h.Run();
    h.ExpectProper(edges);
    awake.push_back(h.stats.max_awake);
  }
  EXPECT_LE(awake[1], awake[0] + 5 * 9 * 3);  // at most ~log* more wakes
}

TEST(LogStarColoringTest, RejectsIsolatedFragment) {
  Xoshiro256 rng(6);
  GeneratorOptions opt;
  opt.shuffle_ids = false;
  auto g = MakePath(4, rng, opt);
  LogStarHarness h(std::move(g), {});
  // RunLogStar skips coloring for empty nbr; starting it anyway throws.
  BlockCursor cursor(1, h.g.NumNodes());
  ProcedureProgram<FlatLogStarColoring> program(
      h.g, [&](const FlatNodeRef& node, FlatLogStarColoring& proc,
               SendLane& sends) {
        return proc.Begin(node, h.states[node.v], cursor, h.nbr[node.v],
                          h.h_ports[node.v], 1, sends);
      });
  Simulator sim(h.g);
  EXPECT_THROW(sim.Run(program), std::logic_error);
}

TEST(LogStarColoringTest, TwoValidEdgesBetweenTheSameFragments) {
  // Mutual-MOE-like shape: two 2-node fragments joined by TWO distinct
  // valid edges (the deterministic algorithm can produce this when f's
  // outgoing MOE to g and g's outgoing MOE to f are different edges).
  GraphBuilder b(4);
  b.AddEdge(0, 1, 1).AddEdge(2, 3, 2).AddEdge(0, 2, 3).AddEdge(1, 3, 4);
  auto g = std::move(b).Build();
  auto states = BuildForest(g, {0, 1}, {0, 2});  // fragments {0,1}, {2,3}

  std::vector<std::vector<NbrEntry>> nbr(4);
  std::vector<std::vector<HPort>> h_ports(4);
  const NodeId id_a = g.IdOf(0), id_b = g.IdOf(2);
  for (NodeIndex v : {0u, 1u}) {
    nbr[v] = {{id_b, 3, true}, {id_b, 4, false}};
  }
  for (NodeIndex v : {2u, 3u}) {
    nbr[v] = {{id_a, 3, false}, {id_a, 4, true}};
  }
  h_ports[0] = {{PortTo(g, 0, 2), id_b}};
  h_ports[2] = {{PortTo(g, 2, 0), id_a}};
  h_ports[1] = {{PortTo(g, 1, 3), id_b}};
  h_ports[3] = {{PortTo(g, 3, 1), id_a}};

  const std::vector<LogStarResult> results =
      RunLogStar(g, states, nbr, h_ports, nullptr);
  // Fragment-level colors: consistent within a fragment, proper across.
  EXPECT_EQ(results[0].my_color, results[1].my_color);
  EXPECT_EQ(results[2].my_color, results[3].my_color);
  EXPECT_NE(results[0].my_color, results[2].my_color);
  EXPECT_EQ(results[0].neighbor_colors.at(id_b), results[2].my_color);
  EXPECT_EQ(results[2].neighbor_colors.at(id_a), results[0].my_color);
}

TEST(LogStarColoringTest, ExchangeRejectsAnIndexPastItsNeighborList) {
  // Fragment {0,1} lists no H-neighbors, yet its root hears an
  // announcement on an H-port, so the gathered index names no neighbor.
  // In a run only a foreign (faulted) message gets there; it must be a
  // classified protocol stall, not an out-of-bounds read.
  GraphBuilder b(3);
  b.AddEdge(0, 1, 1).AddEdge(0, 2, 2);
  auto g = std::move(b).Build();
  auto states = BuildForest(g, {0}, {0, 2});  // fragments {0,1} and {2}
  const std::vector<NodeId> none;
  const std::vector<NodeId> frag_a{g.IdOf(0)};
  std::vector<std::vector<HPort>> h_ports(3);
  h_ports[0] = {{PortTo(g, 0, 2), g.IdOf(2)}};
  h_ports[2] = {{PortTo(g, 2, 0), g.IdOf(0)}};
  std::vector<BlockCursor> cursors(3, BlockCursor(1, 3));
  ProcedureProgram<FlatExchange> program(
      g, [&](const FlatNodeRef& node, FlatExchange& proc, SendLane& sends) {
        return proc.Begin(node, states[node.v], cursors[node.v],
                          node.v == 2 ? frag_a : none, h_ports[node.v], 5,
                          true, sends);
      });
  Simulator sim(g);
  EXPECT_THROW(sim.Run(program), ProtocolStallError);
}

}  // namespace
}  // namespace smst
