// Randomized property tests for Merging-Fragments: random graphs, random
// spanning forests, random (valid) merge configurations — after one merge
// wave the forest invariant must hold, tails fragments must be absorbed
// into their targets, and the awake cost must stay O(1).
#include <map>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "smst/graph/generators.h"
#include "smst/graph/union_find.h"
#include "smst/runtime/simulator.h"
#include "smst/sleeping/flat_procedures.h"
#include "smst/sleeping/forest_builder.h"

namespace smst {
namespace {

struct RandomMergeScenario {
  WeightedGraph g;
  std::vector<LdtState> states;
  std::vector<MergeRole> roles;
  std::map<NodeId, NodeId> expected_frag;  // old fragment -> fragment after
  std::size_t tails_count = 0;

  // Builds a random forest over a random graph and picks a random
  // independent set of fragments as tails, each with a valid attach edge
  // into a non-tails fragment.
  RandomMergeScenario(std::size_t n, std::uint64_t seed)
      : g(MakeGraph(n, seed)) {
    Xoshiro256 rng(seed * 7 + 1);

    // Random spanning forest: sample edges in random order, keep a
    // random fraction of the acyclic ones.
    std::vector<EdgeIndex> order(g.NumEdges());
    for (EdgeIndex e = 0; e < g.NumEdges(); ++e) order[e] = e;
    Shuffle(order, rng);
    UnionFind uf(n);
    std::vector<EdgeIndex> forest;
    for (EdgeIndex e : order) {
      if (rng.NextDouble() < 0.6 &&
          !uf.Connected(g.GetEdge(e).u, g.GetEdge(e).v)) {
        uf.Union(g.GetEdge(e).u, g.GetEdge(e).v);
        forest.push_back(e);
      }
    }
    // One random root per component.
    std::map<std::size_t, std::vector<NodeIndex>> comps;
    for (NodeIndex v = 0; v < n; ++v) comps[uf.Find(v)].push_back(v);
    std::vector<NodeIndex> roots;
    std::vector<NodeId> frag_of(n);
    for (auto& [rep, members] : comps) {
      NodeIndex root = members[rng.NextBelow(members.size())];
      roots.push_back(root);
      for (NodeIndex v : members) frag_of[v] = g.IdOf(root);
    }
    states = BuildForest(g, forest, roots);

    // Tails selection: walk fragments in random order; a fragment may
    // become tails if it has an outgoing edge to a fragment that is not
    // (yet) tails; mark the target as permanently non-tails.
    roles.resize(n);
    std::set<NodeId> is_tails, is_target;
    Shuffle(roots, rng);
    for (NodeIndex root : roots) {
      const NodeId frag = g.IdOf(root);
      expected_frag.emplace(frag, frag);
      if (is_target.count(frag)) continue;
      // Collect candidate outgoing edges to eligible targets.
      std::vector<std::pair<NodeIndex, std::uint32_t>> candidates;
      for (NodeIndex v = 0; v < n; ++v) {
        if (frag_of[v] != frag) continue;
        std::uint32_t port = 0;
        for (const Port& p : g.PortsOf(v)) {
          const NodeId other = frag_of[p.neighbor];
          if (other != frag && !is_tails.count(other)) {
            candidates.emplace_back(v, port);
          }
          ++port;
        }
      }
      if (candidates.empty() || rng.NextDouble() < 0.3) continue;
      auto [node, port] = candidates[rng.NextBelow(candidates.size())];
      const NodeId target = frag_of[g.PortsOf(node)[port].neighbor];
      is_tails.insert(frag);
      is_target.insert(target);
      for (NodeIndex v = 0; v < n; ++v) {
        if (frag_of[v] == frag) roles[v].is_tails = true;
      }
      roles[node].attach_port = port;
      expected_frag[frag] = target;
      ++tails_count;
    }
    // Resolve chains: tails -> target which may itself be... targets are
    // never tails by construction, so one hop suffices.
  }

  static WeightedGraph MakeGraph(std::size_t n, std::uint64_t seed) {
    Xoshiro256 rng(seed);
    return MakeErdosRenyi(n, 5.0 / static_cast<double>(n), rng);
  }
};

class MergingPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MergingPropertyTest, RandomScenarioPreservesAllInvariants) {
  const std::uint64_t seed = GetParam();
  RandomMergeScenario sc(40, seed);
  ASSERT_EQ(CheckForestInvariant(sc.g, sc.states), "");

  std::vector<LdtState> before = sc.states;
  std::vector<std::vector<std::uint8_t>> marks;
  for (NodeIndex v = 0; v < sc.g.NumNodes(); ++v) {
    marks.emplace_back(sc.g.DegreeOf(v), 0);
  }
  ProcedureProgram<FlatMerge> program(
      sc.g, [&](const FlatNodeRef& node, FlatMerge& proc, SendLane& sends) {
        BlockCursor cursor(1, node.NumNodesKnown());
        return proc.Begin(node, sc.states[node.v], cursor, sc.roles[node.v],
                          marks[node.v], sends);
      });
  Simulator sim(sc.g);
  sim.Run(program);

  // Forest invariant after the wave.
  EXPECT_EQ(CheckForestInvariant(sc.g, sc.states), "");

  // Every node landed in the fragment the scenario predicts.
  for (NodeIndex v = 0; v < sc.g.NumNodes(); ++v) {
    EXPECT_EQ(sc.states[v].fragment_id,
              sc.expected_frag.at(before[v].fragment_id))
        << "node " << v << " seed " << seed;
  }

  // Exactly one merge edge per tails fragment, marked by both endpoints.
  std::size_t marked_pairs = 0;
  for (EdgeIndex e = 0; e < sc.g.NumEdges(); ++e) {
    const Edge& edge = sc.g.GetEdge(e);
    std::uint32_t pu = PortTo(sc.g, edge.u, edge.v);
    std::uint32_t pv = PortTo(sc.g, edge.v, edge.u);
    EXPECT_EQ(marks[edge.u][pu], marks[edge.v][pv]) << "edge " << e;
    marked_pairs += marks[edge.u][pu] ? 1 : 0;
  }
  EXPECT_EQ(marked_pairs, sc.tails_count);

  // O(1) awake and no lost messages.
  EXPECT_LE(sim.Stats().max_awake, 5u);
  EXPECT_EQ(sim.Stats().dropped_messages, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MergingPropertyTest,
                         ::testing::Range<std::uint64_t>(1, 26));

}  // namespace
}  // namespace smst
