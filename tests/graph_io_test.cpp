#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "smst/graph/generators.h"
#include "smst/graph/io.h"
#include "smst/graph/mst_reference.h"

namespace smst {
namespace {

TEST(EdgeListTest, ParsesMinimalGraph) {
  std::istringstream in(R"(# comment
n 3
0 1 10
1 2 20   # trailing comment
)");
  auto g = ReadEdgeList(in);
  EXPECT_EQ(g.NumNodes(), 3u);
  EXPECT_EQ(g.NumEdges(), 2u);
  EXPECT_EQ(g.IdOf(0), 1u);  // default IDs
  EXPECT_EQ(g.MaxId(), 3u);
}

TEST(EdgeListTest, ParsesExplicitIds) {
  std::istringstream in(R"(n 2 50
id 0 7
id 1 42
0 1 5
)");
  auto g = ReadEdgeList(in);
  EXPECT_EQ(g.IdOf(0), 7u);
  EXPECT_EQ(g.IdOf(1), 42u);
  EXPECT_EQ(g.MaxId(), 50u);
}

TEST(EdgeListTest, RoundTripsThroughWrite) {
  Xoshiro256 rng(1);
  GeneratorOptions opt;
  opt.max_id = 500;
  auto g = MakeErdosRenyi(30, 0.2, rng, opt);
  std::ostringstream out;
  WriteEdgeList(g, out);
  std::istringstream in(out.str());
  auto g2 = ReadEdgeList(in);
  ASSERT_EQ(g2.NumNodes(), g.NumNodes());
  ASSERT_EQ(g2.NumEdges(), g.NumEdges());
  EXPECT_EQ(g2.MaxId(), g.MaxId());
  for (EdgeIndex e = 0; e < g.NumEdges(); ++e) {
    EXPECT_EQ(g2.GetEdge(e).u, g.GetEdge(e).u);
    EXPECT_EQ(g2.GetEdge(e).v, g.GetEdge(e).v);
    EXPECT_EQ(g2.GetEdge(e).weight, g.GetEdge(e).weight);
  }
  for (NodeIndex v = 0; v < g.NumNodes(); ++v) {
    EXPECT_EQ(g2.IdOf(v), g.IdOf(v));
  }
}

TEST(EdgeListTest, ErrorsCarryLineNumbers) {
  {
    std::istringstream in("0 1 5\n");
    EXPECT_THROW(ReadEdgeList(in), std::invalid_argument);  // edge before n
  }
  {
    std::istringstream in("n 0\n");
    EXPECT_THROW(ReadEdgeList(in), std::invalid_argument);
  }
  {
    std::istringstream in("n 3\n0 1\n");
    try {
      ReadEdgeList(in);
      FAIL();
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
    }
  }
  {
    std::istringstream in("n 2\nn 2\n");
    EXPECT_THROW(ReadEdgeList(in), std::invalid_argument);
  }
  {
    std::istringstream in("n 2 1\n0 1 5\n");  // max-id < n
    EXPECT_THROW(ReadEdgeList(in), std::invalid_argument);
  }
  {
    std::istringstream in("n 2\nid 0 9\n0 1 5\n");  // partial ids
    EXPECT_THROW(ReadEdgeList(in), std::invalid_argument);
  }
  {
    std::istringstream in("");
    EXPECT_THROW(ReadEdgeList(in), std::invalid_argument);
  }
}

// Every field is one whole unsigned decimal token; anything else fails
// naming its line instead of being read as some other number.
void ExpectLineError(const std::string& text, const std::string& line) {
  std::istringstream in(text);
  try {
    ReadEdgeList(in);
    ADD_FAILURE() << "accepted:\n" << text;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(line), std::string::npos)
        << e.what();
  }
}

TEST(EdgeListTest, RejectsNegativeWeight) {
  // An unsigned stream read wraps "-1" to 2^64-1.
  ExpectLineError("n 3\n0 1 -1\n1 2 7\n", "line 2");
}

TEST(EdgeListTest, RejectsFractionalWeight) {
  ExpectLineError("n 3\n0 1 1.5\n1 2 7\n", "line 2");
}

TEST(EdgeListTest, RejectsTrailingTokenOnEdgeLine) {
  ExpectLineError("n 3\n0 1 5 junk\n1 2 7\n", "line 2");
}

TEST(EdgeListTest, RejectsTrailingTokenOnHeader) {
  ExpectLineError("n 3 junk\n0 1 5\n1 2 7\n", "line 1");
}

TEST(EdgeListTest, RejectsNodeCountBeyondNodeIndex) {
  // 2^32 + 1 nodes: no NodeIndex can address them.
  ExpectLineError("n 4294967297\n0 1 5\n", "line 1");
}

// One 'id' line per node: a second one for the same node fails on its
// line instead of silently replacing the first.
TEST(EdgeListTest, RejectsRepeatedIdLine) {
  ExpectLineError("n 2 9\nid 0 5\nid 0 7\nid 1 3\n0 1 5\n", "line 3");
}

// ID 0 is an ID outside [1, N] like any other, not a missing 'id' line.
TEST(EdgeListTest, IdZeroIsOutOfRange) {
  std::istringstream in("n 2\nid 0 1\nid 1 0\n0 1 5\n");
  try {
    ReadEdgeList(in);
    ADD_FAILURE() << "accepted ID 0";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "node ID 0 outside [1, N]");
  }
}

TEST(EdgeListTest, BuilderValidationPropagates) {
  // Disconnected graph: the builder's connectivity check fires.
  std::istringstream in("n 4\n0 1 1\n2 3 2\n");
  EXPECT_THROW(ReadEdgeList(in), std::invalid_argument);
}

TEST(DotTest, HighlightsTreeEdges) {
  Xoshiro256 rng(2);
  auto g = MakeRing(5, rng);
  auto mst = KruskalMst(g);
  std::ostringstream out;
  WriteDot(g, mst, out);
  const std::string dot = out.str();
  EXPECT_NE(dot.find("graph smst {"), std::string::npos);
  // 4 tree edges bold, 1 non-tree edge grey.
  std::size_t bold = 0, pos = 0;
  while ((pos = dot.find("penwidth", pos)) != std::string::npos) {
    ++bold;
    ++pos;
  }
  EXPECT_EQ(bold, 4u);
  EXPECT_NE(dot.find("#bbbbbb"), std::string::npos);
  // Every node declared.
  for (NodeIndex v = 0; v < 5; ++v) {
    EXPECT_NE(dot.find("label=\"" + std::to_string(v) + " ("),
              std::string::npos);
  }
}

TEST(FileIoTest, ReadEdgeListFileErrorsOnMissing) {
  EXPECT_THROW(ReadEdgeListFile("/nonexistent/path/graph.txt"),
               std::invalid_argument);
}

}  // namespace
}  // namespace smst
