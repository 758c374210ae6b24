#include <sstream>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "smst/graph/generators.h"
#include "smst/graph/graph.h"
#include "smst/graph/io.h"
#include "smst/graph/properties.h"
#include "smst/graph/union_find.h"
#include "smst/lower_bounds/grc.h"

namespace smst {
namespace {

WeightedGraph Triangle() {
  GraphBuilder b(3);
  b.AddEdge(0, 1, 10).AddEdge(1, 2, 20).AddEdge(2, 0, 30);
  return std::move(b).Build();
}

TEST(GraphBuilderTest, BuildsTriangle) {
  auto g = Triangle();
  EXPECT_EQ(g.NumNodes(), 3u);
  EXPECT_EQ(g.NumEdges(), 3u);
  EXPECT_EQ(g.DegreeOf(0), 2u);
  EXPECT_EQ(g.DegreeOf(1), 2u);
  EXPECT_EQ(g.DegreeOf(2), 2u);
}

TEST(GraphBuilderTest, DefaultIdsAreOneToN) {
  auto g = Triangle();
  EXPECT_EQ(g.IdOf(0), 1u);
  EXPECT_EQ(g.IdOf(2), 3u);
  EXPECT_EQ(g.MaxId(), 3u);
  EXPECT_EQ(g.IndexOfId(2), 1u);
  EXPECT_EQ(g.IndexOfId(99), kInvalidNode);
}

TEST(GraphBuilderTest, CustomIds) {
  GraphBuilder b(2);
  b.AddEdge(0, 1, 5);
  b.SetIds({7, 3}, 10);
  auto g = std::move(b).Build();
  EXPECT_EQ(g.IdOf(0), 7u);
  EXPECT_EQ(g.MaxId(), 10u);
}

TEST(GraphBuilderTest, RejectsNodeCountPastIndexRange) {
  // Refused at construction: with 2^32 nodes Build() used to size the
  // port offsets for every node before any check could fail.
  try {
    GraphBuilder b(kMaxNodeCount + 1);
    ADD_FAILURE() << "accepted 2^32 nodes";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()),
              "graph of 4294967296 nodes exceeds the node index range (at "
              "most 4294967295 nodes)");
  }
}

TEST(GraphBuilderTest, RejectsSelfLoop) {
  GraphBuilder b(2);
  EXPECT_THROW(b.AddEdge(1, 1, 3), std::invalid_argument);
}

TEST(GraphBuilderTest, RejectsOutOfRangeEndpoint) {
  GraphBuilder b(2);
  EXPECT_THROW(b.AddEdge(0, 2, 3), std::invalid_argument);
}

TEST(GraphBuilderTest, RejectsDuplicateWeight) {
  GraphBuilder b(3);
  b.AddEdge(0, 1, 5).AddEdge(1, 2, 5);
  EXPECT_THROW(std::move(b).Build(), std::invalid_argument);
}

TEST(GraphBuilderTest, RejectsReservedWeights) {
  // 0 and 2^64-1 are the algorithms' -infinity / +infinity; an MST edge
  // weighing +infinity would read as "no candidate" in Upcast-Min.
  for (const Weight w : {Weight{0}, ~Weight{0}}) {
    GraphBuilder b(3);
    b.AddEdge(0, 1, w).AddEdge(1, 2, 7);
    try {
      std::move(b).Build();
      ADD_FAILURE() << "accepted weight " << w;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("edge 0-1"), std::string::npos)
          << e.what();
    }
  }
}

TEST(GraphBuilderTest, RejectsParallelEdge) {
  GraphBuilder b(2);
  b.AddEdge(0, 1, 5).AddEdge(1, 0, 6);
  EXPECT_THROW(std::move(b).Build(), std::invalid_argument);
}

TEST(GraphBuilderTest, RejectsDisconnected) {
  GraphBuilder b(4);
  b.AddEdge(0, 1, 1).AddEdge(2, 3, 2);
  EXPECT_THROW(std::move(b).Build(), std::invalid_argument);
}

TEST(GraphBuilderTest, RejectsDuplicateIds) {
  GraphBuilder b(2);
  b.AddEdge(0, 1, 1);
  b.SetIds({4, 4}, 10);
  EXPECT_THROW(std::move(b).Build(), std::invalid_argument);
}

TEST(GraphBuilderTest, RejectsIdAboveN) {
  GraphBuilder b(2);
  b.AddEdge(0, 1, 1);
  b.SetIds({4, 11}, 10);
  EXPECT_THROW(std::move(b).Build(), std::invalid_argument);
}

TEST(GraphBuilderTest, RejectsZeroId) {
  GraphBuilder b(2);
  b.AddEdge(0, 1, 1);
  b.SetIds({0, 1}, 10);
  EXPECT_THROW(std::move(b).Build(), std::invalid_argument);
}

// With two offenders, each check names the first in insertion order.
std::string BuildError(GraphBuilder b) {
  try {
    std::move(b).Build();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "built";
}

TEST(GraphBuilderTest, RejectsMaxIdBelowDefaultIds) {
  GraphBuilder b(3);
  b.AddEdge(0, 1, 10).AddEdge(1, 2, 20).SetMaxId(2);
  EXPECT_EQ(BuildError(std::move(b)), "node ID 3 outside [1, N]");
}

TEST(GraphBuilderTest, DuplicateWeightNamesTheFirstOffender) {
  GraphBuilder b(5);
  b.AddEdge(0, 1, 5).AddEdge(1, 2, 7).AddEdge(2, 3, 5).AddEdge(3, 4, 7);
  EXPECT_EQ(BuildError(std::move(b)), "duplicate edge weight 5");
}

TEST(GraphBuilderTest, ReservedWeightNamesTheFirstOffender) {
  GraphBuilder b(4);
  b.AddEdge(0, 1, 3).AddEdge(1, 2, ~Weight{0}).AddEdge(2, 3, 0);
  EXPECT_EQ(BuildError(std::move(b)),
            "edge 1-2 has reserved weight 18446744073709551615 (weights "
            "must lie in [1, 2^64-2])");
}

TEST(GraphBuilderTest, WeightChecksShareOneInsertionOrder) {
  // A duplicate before a reserved weight is named first, and vice versa:
  // both weight checks run in one pass over the edges.
  GraphBuilder dup_first(5);
  dup_first.AddEdge(0, 1, 5).AddEdge(1, 2, 5).AddEdge(2, 3, 0).AddEdge(3, 4,
                                                                       9);
  EXPECT_EQ(BuildError(std::move(dup_first)), "duplicate edge weight 5");
  GraphBuilder reserved_first(5);
  reserved_first.AddEdge(0, 1, 5).AddEdge(1, 2, 0).AddEdge(2, 3, 5).AddEdge(
      3, 4, 9);
  EXPECT_EQ(BuildError(std::move(reserved_first)),
            "edge 1-2 has reserved weight 0 (weights must lie in [1, "
            "2^64-2])");
}

TEST(GraphBuilderTest, ParallelEdgeNamesTheFirstOffender) {
  GraphBuilder b(4);
  b.AddEdge(0, 1, 1).AddEdge(1, 2, 2).AddEdge(2, 3, 3).AddEdge(2, 1, 4)
      .AddEdge(1, 0, 5);
  EXPECT_EQ(BuildError(std::move(b)), "parallel edge between 2 and 1");
}

TEST(GraphBuilderTest, DuplicateIdNamesTheFirstOffender) {
  GraphBuilder b(4);
  b.AddEdge(0, 1, 1).AddEdge(1, 2, 2).AddEdge(2, 3, 3);
  b.SetIds({9, 4, 9, 4}, 10);
  EXPECT_EQ(BuildError(std::move(b)), "duplicate node ID 9");
}

TEST(GraphBuilderTest, IdOutsideRangeNamesTheFirstOffender) {
  GraphBuilder b(4);
  b.AddEdge(0, 1, 1).AddEdge(1, 2, 2).AddEdge(2, 3, 3);
  b.SetIds({3, 12, 0, 11}, 10);
  EXPECT_EQ(BuildError(std::move(b)), "node ID 12 outside [1, N]");
}

TEST(GraphBuilderTest, IdChecksShareOneInsertionOrder) {
  GraphBuilder b(4);
  b.AddEdge(0, 1, 1).AddEdge(1, 2, 2).AddEdge(2, 3, 3);
  b.SetIds({3, 3, 0, 11}, 10);
  EXPECT_EQ(BuildError(std::move(b)), "duplicate node ID 3");
}

TEST(GraphTest, PortsCoverIncidentEdges) {
  auto g = Triangle();
  auto ports = g.PortsOf(1);
  ASSERT_EQ(ports.size(), 2u);
  // Port order is edge-insertion order: (0,1) then (1,2).
  EXPECT_EQ(ports[0].neighbor, 0u);
  EXPECT_EQ(ports[0].weight, 10u);
  EXPECT_EQ(ports[1].neighbor, 2u);
  EXPECT_EQ(ports[1].weight, 20u);
}

// For every port (v, p) to u, the reverse port q is u's port back to v
// over the same edge.
void ExpectReversePortsLeadBack(const WeightedGraph& g) {
  for (NodeIndex v = 0; v < g.NumNodes(); ++v) {
    const auto ports = g.PortsOf(v);
    const auto reverse = g.ReversePortsOf(v);
    ASSERT_EQ(reverse.size(), ports.size()) << "node " << v;
    for (std::uint32_t p = 0; p < ports.size(); ++p) {
      const NodeIndex u = ports[p].neighbor;
      const std::uint32_t q = reverse[p];
      ASSERT_LT(q, g.DegreeOf(u)) << "node " << v << " port " << p;
      EXPECT_EQ(g.PortsOf(u)[q].neighbor, v) << "node " << v << " port " << p;
      EXPECT_EQ(g.PortsOf(u)[q].edge, ports[p].edge)
          << "node " << v << " port " << p;
    }
  }
}

TEST(GraphTest, ReversePortsLeadBackOnEveryGeneratorFamily) {
  Xoshiro256 rng(17);
  const auto check = [](const char* family, const WeightedGraph& g) {
    SCOPED_TRACE(family);
    ExpectReversePortsLeadBack(g);
  };
  check("path", MakePath(9, rng));
  check("ring", MakeRing(9, rng));
  check("star", MakeStar(70, rng));  // the hub has ports past 64
  check("complete", MakeComplete(9, rng));
  check("binary tree", MakeBinaryTree(15, rng));
  check("grid", MakeGrid(3, 4, rng));
  check("barbell", MakeBarbell(10, rng));
  check("hypercube", MakeHypercube(4, rng));
  check("caterpillar", MakeCaterpillar(5, rng));
  check("lollipop", MakeLollipop(10, rng));
  check("erdos-renyi", MakeErdosRenyi(40, 0.2, rng));
  check("random tree", MakeRandomTree(30, rng));
  check("random geometric", MakeRandomGeometric(40, 0.3, rng));
  check("G_rc", BuildGrc(4, 16, rng).graph);
}

TEST(GraphTest, ReversePortsLeadBackWhenEdgesComeOutOfNodeOrder) {
  // Edges listed neither by node nor with u < v, so ports fill in an
  // order unrelated to the node numbering.
  std::istringstream in(R"(n 6
4 5 1
3 0 2
5 1 3
2 0 4
1 3 5
0 4 6
2 5 7
)");
  const auto g = ReadEdgeList(in);
  ExpectReversePortsLeadBack(g);
  // Node 0's ports, in insertion order, lead to 3, 2 and 4.
  EXPECT_EQ(g.ReversePortsOf(0)[0], 0u);  // 3's first edge is to 0
  EXPECT_EQ(g.ReversePortsOf(0)[2], 1u);  // 4's second edge is to 0
}

TEST(GraphTest, TotalWeight) {
  auto g = Triangle();
  std::vector<EdgeIndex> set{0, 2};
  EXPECT_EQ(g.TotalWeight(set), 40u);
}

TEST(PropertiesTest, BfsDistancesOnPath) {
  GraphBuilder b(4);
  b.AddEdge(0, 1, 1).AddEdge(1, 2, 2).AddEdge(2, 3, 3);
  auto g = std::move(b).Build();
  auto d = BfsDistances(g, 0);
  EXPECT_EQ(d, (std::vector<std::uint32_t>{0, 1, 2, 3}));
  EXPECT_EQ(Eccentricity(g, 1), 2u);
  EXPECT_EQ(ExactDiameter(g), 3u);
  EXPECT_EQ(DoubleSweepDiameterLowerBound(g), 3u);
}

TEST(PropertiesTest, DiameterOfTriangleIsOne) {
  EXPECT_EQ(ExactDiameter(Triangle()), 1u);
}

TEST(PropertiesTest, SpanningTreeDetection) {
  auto g = Triangle();
  EXPECT_TRUE(IsSpanningTree(g, {true, true, false}));
  EXPECT_TRUE(IsSpanningTree(g, {false, true, true}));
  EXPECT_FALSE(IsSpanningTree(g, {true, true, true}));   // cycle
  EXPECT_FALSE(IsSpanningTree(g, {true, false, false}));  // too few
}

TEST(UnionFindTest, BasicMerging) {
  UnionFind uf(5);
  EXPECT_EQ(uf.NumSets(), 5u);
  EXPECT_TRUE(uf.Union(0, 1));
  EXPECT_FALSE(uf.Union(1, 0));
  EXPECT_TRUE(uf.Connected(0, 1));
  EXPECT_FALSE(uf.Connected(0, 2));
  EXPECT_EQ(uf.NumSets(), 4u);
  EXPECT_EQ(uf.SizeOf(0), 2u);
  uf.Union(2, 3);
  uf.Union(0, 3);
  EXPECT_EQ(uf.SizeOf(1), 4u);
  EXPECT_EQ(uf.NumSets(), 2u);
}

}  // namespace
}  // namespace smst
