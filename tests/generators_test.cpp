#include <cmath>
#include <cstdint>
#include <functional>
#include <iostream>
#include <iterator>
#include <limits>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "smst/graph/generators.h"
#include "smst/graph/properties.h"
#include "smst/lower_bounds/grc.h"
#include "smst/lower_bounds/set_disjointness.h"
#include "tests/test_util.h"

namespace smst {
namespace {

void ExpectValid(const WeightedGraph& g, std::size_t n) {
  EXPECT_EQ(g.NumNodes(), n);
  // Builder already guarantees connected / simple / distinct weights; we
  // re-check weight distinctness as a belt-and-braces property.
  std::set<Weight> w;
  for (const Edge& e : g.Edges()) w.insert(e.weight);
  EXPECT_EQ(w.size(), g.NumEdges());
}

TEST(GeneratorsTest, Path) {
  Xoshiro256 rng(1);
  auto g = MakePath(10, rng);
  ExpectValid(g, 10);
  EXPECT_EQ(g.NumEdges(), 9u);
  EXPECT_EQ(ExactDiameter(g), 9u);
}

TEST(GeneratorsTest, Ring) {
  Xoshiro256 rng(1);
  auto g = MakeRing(10, rng);
  ExpectValid(g, 10);
  EXPECT_EQ(g.NumEdges(), 10u);
  EXPECT_EQ(ExactDiameter(g), 5u);
  for (NodeIndex v = 0; v < 10; ++v) EXPECT_EQ(g.DegreeOf(v), 2u);
}

TEST(GeneratorsTest, RingRejectsTiny) {
  Xoshiro256 rng(1);
  EXPECT_THROW(MakeRing(2, rng), std::invalid_argument);
}

TEST(GeneratorsTest, Star) {
  Xoshiro256 rng(2);
  auto g = MakeStar(8, rng);
  ExpectValid(g, 8);
  EXPECT_EQ(g.NumEdges(), 7u);
  EXPECT_EQ(g.DegreeOf(0), 7u);
  EXPECT_EQ(ExactDiameter(g), 2u);
}

TEST(GeneratorsTest, Complete) {
  Xoshiro256 rng(3);
  auto g = MakeComplete(7, rng);
  ExpectValid(g, 7);
  EXPECT_EQ(g.NumEdges(), 21u);
  EXPECT_EQ(ExactDiameter(g), 1u);
}

TEST(GeneratorsTest, BinaryTree) {
  Xoshiro256 rng(4);
  auto g = MakeBinaryTree(15, rng);
  ExpectValid(g, 15);
  EXPECT_EQ(g.NumEdges(), 14u);
  EXPECT_EQ(ExactDiameter(g), 6u);  // leaf -> root -> other leaf
}

TEST(GeneratorsTest, Grid) {
  Xoshiro256 rng(5);
  auto g = MakeGrid(4, 5, rng);
  ExpectValid(g, 20);
  EXPECT_EQ(g.NumEdges(), 4u * 4 + 5u * 3);  // rows*(cols-1) + (rows-1)*cols
  EXPECT_EQ(ExactDiameter(g), 3u + 4u);
}

TEST(GeneratorsTest, Barbell) {
  Xoshiro256 rng(6);
  auto g = MakeBarbell(10, rng);
  ExpectValid(g, 10);
  EXPECT_EQ(ExactDiameter(g), 3u);
}

TEST(GeneratorsTest, ErdosRenyiIsAlwaysConnected) {
  Xoshiro256 rng(7);
  for (int trial = 0; trial < 5; ++trial) {
    auto g = MakeErdosRenyi(50, 0.01, rng);  // far below threshold
    ExpectValid(g, 50);                      // Build() throws if unconnected
  }
}

TEST(GeneratorsTest, ErdosRenyiRejectsNegativeOrNanP) {
  Xoshiro256 rng(7);
  EXPECT_THROW(MakeErdosRenyi(20, -0.5, rng), std::invalid_argument);
  EXPECT_THROW(MakeErdosRenyi(20, std::nan(""), rng), std::invalid_argument);
  // The checks draw nothing: a valid call after them still gets the
  // seed's graph.
  Xoshiro256 fresh(7);
  const auto g = MakeErdosRenyi(20, 0.3, rng);
  const auto expected = MakeErdosRenyi(20, 0.3, fresh);
  ASSERT_EQ(g.NumEdges(), expected.NumEdges());
  for (EdgeIndex e = 0; e < g.NumEdges(); ++e) {
    EXPECT_EQ(g.GetEdge(e).weight, expected.GetEdge(e).weight);
  }
}

TEST(GeneratorsTest, ErdosRenyiWithPAtLeastOneIsComplete) {
  Xoshiro256 a(3), b(3);
  EXPECT_EQ(MakeErdosRenyi(7, 1.0, a).NumEdges(), 21u);
  EXPECT_EQ(MakeErdosRenyi(7, 8.0 / 7.0, b).NumEdges(), 21u);
}

TEST(GeneratorsTest, RandomTreeHasExactlyNMinusOneEdges) {
  Xoshiro256 rng(8);
  auto g = MakeRandomTree(64, rng);
  ExpectValid(g, 64);
  EXPECT_EQ(g.NumEdges(), 63u);
}

TEST(GeneratorsTest, RandomGeometricConnected) {
  Xoshiro256 rng(9);
  auto g = MakeRandomGeometric(60, 0.18, rng);
  ExpectValid(g, 60);
}

TEST(GeneratorsTest, RandomGeometricRejectsNegativeOrNanRadius) {
  Xoshiro256 rng(9);
  EXPECT_THROW(MakeRandomGeometric(20, -0.3, rng), std::invalid_argument);
  EXPECT_THROW(MakeRandomGeometric(20, std::nan(""), rng),
               std::invalid_argument);
  Xoshiro256 fresh(9);
  const auto g = MakeRandomGeometric(20, 0.3, rng);
  const auto expected = MakeRandomGeometric(20, 0.3, fresh);
  ASSERT_EQ(g.NumEdges(), expected.NumEdges());
  for (EdgeIndex e = 0; e < g.NumEdges(); ++e) {
    EXPECT_EQ(g.GetEdge(e).weight, expected.GetEdge(e).weight);
  }
  // Radius 0 is legal: only the connectivity patch adds edges.
  Xoshiro256 zero(9);
  EXPECT_EQ(MakeRandomGeometric(20, 0.0, zero).NumEdges(), 19u);
}

TEST(GeneratorsTest, SameSeedSameGraph) {
  Xoshiro256 a(42), b(42);
  auto g1 = MakeErdosRenyi(30, 0.2, a);
  auto g2 = MakeErdosRenyi(30, 0.2, b);
  ASSERT_EQ(g1.NumEdges(), g2.NumEdges());
  for (EdgeIndex e = 0; e < g1.NumEdges(); ++e) {
    EXPECT_EQ(g1.GetEdge(e).u, g2.GetEdge(e).u);
    EXPECT_EQ(g1.GetEdge(e).v, g2.GetEdge(e).v);
    EXPECT_EQ(g1.GetEdge(e).weight, g2.GetEdge(e).weight);
  }
}

TEST(GeneratorsTest, MaxIdOptionSamplesSparseIds) {
  Xoshiro256 rng(10);
  GeneratorOptions opt;
  opt.max_id = 10000;
  auto g = MakeRing(20, rng, opt);
  EXPECT_EQ(g.MaxId(), 10000u);
  bool any_above_n = false;
  for (NodeIndex v = 0; v < 20; ++v) {
    EXPECT_GE(g.IdOf(v), 1u);
    EXPECT_LE(g.IdOf(v), 10000u);
    any_above_n |= g.IdOf(v) > 20;
  }
  EXPECT_TRUE(any_above_n);  // overwhelmingly likely
}

TEST(GeneratorsTest, UnshuffledIdsAreIndexOrder) {
  Xoshiro256 rng(11);
  GeneratorOptions opt;
  opt.shuffle_ids = false;
  auto g = MakePath(5, rng, opt);
  for (NodeIndex v = 0; v < 5; ++v) EXPECT_EQ(g.IdOf(v), v + 1);
}

TEST(GeneratorsTest, FromEdgeList) {
  Xoshiro256 rng(12);
  auto g = FromEdgeList(3, {{0, 1}, {1, 2}}, rng);
  ExpectValid(g, 3);
  EXPECT_EQ(g.NumEdges(), 2u);
}

// --- node counts past the NodeIndex range ------------------------------
//
// Refused on entry, before anything is allocated. A count of 2^32 once
// wrapped the generators' 32-bit loop counters, which then ran (and
// allocated) until memory ran out.

constexpr std::size_t kTooMany = kMaxNodeCount + 1;  // 2^32

template <typename Fn>
void ExpectTooManyNodes(Fn&& make, const std::string& count) {
  try {
    make();
    ADD_FAILURE() << "accepted " << count << " nodes";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(" of " + count + " nodes"), std::string::npos)
        << what;
    EXPECT_NE(what.find("at most 4294967295 nodes"), std::string::npos)
        << what;
  }
}

TEST(GeneratorsTest, PathRejectsNodeCountPastIndexRange) {
  Xoshiro256 rng(1);
  ExpectTooManyNodes([&] { MakePath(kTooMany, rng); }, "4294967296");
}

TEST(GeneratorsTest, RingRejectsNodeCountPastIndexRange) {
  Xoshiro256 rng(1);
  ExpectTooManyNodes([&] { MakeRing(kTooMany, rng); }, "4294967296");
}

TEST(GeneratorsTest, StarRejectsNodeCountPastIndexRange) {
  Xoshiro256 rng(1);
  ExpectTooManyNodes([&] { MakeStar(kTooMany, rng); }, "4294967296");
}

TEST(GeneratorsTest, CompleteRejectsNodeCountPastIndexRange) {
  Xoshiro256 rng(1);
  ExpectTooManyNodes([&] { MakeComplete(kTooMany, rng); }, "4294967296");
}

TEST(GeneratorsTest, BinaryTreeRejectsNodeCountPastIndexRange) {
  Xoshiro256 rng(1);
  ExpectTooManyNodes([&] { MakeBinaryTree(kTooMany, rng); }, "4294967296");
}

TEST(GeneratorsTest, GridRejectsNodeCountPastIndexRange) {
  Xoshiro256 rng(1);
  ExpectTooManyNodes([&] { MakeGrid(65536, 65536, rng); }, "65536 x 65536");
  // A product that overflows 64 bits is caught too.
  ExpectTooManyNodes([&] { MakeGrid(kTooMany, kTooMany, rng); },
                     "4294967296 x 4294967296");
}

TEST(GeneratorsTest, BarbellRejectsNodeCountPastIndexRange) {
  Xoshiro256 rng(1);
  ExpectTooManyNodes([&] { MakeBarbell(kTooMany, rng); }, "4294967296");
}

TEST(GeneratorsTest, CaterpillarRejectsNodeCountPastIndexRange) {
  Xoshiro256 rng(1);
  // 2 * spine nodes: a spine of 2^31 is one node too many.
  ExpectTooManyNodes([&] { MakeCaterpillar(kTooMany / 2, rng); },
                     "2 x 2147483648");
}

TEST(GeneratorsTest, LollipopRejectsNodeCountPastIndexRange) {
  Xoshiro256 rng(1);
  ExpectTooManyNodes([&] { MakeLollipop(kTooMany, rng); }, "4294967296");
}

TEST(GeneratorsTest, ErdosRenyiRejectsNodeCountPastIndexRange) {
  Xoshiro256 rng(1);
  ExpectTooManyNodes([&] { MakeErdosRenyi(kTooMany, 1.0, rng); },
                     "4294967296");
}

TEST(GeneratorsTest, RandomTreeRejectsNodeCountPastIndexRange) {
  Xoshiro256 rng(1);
  ExpectTooManyNodes([&] { MakeRandomTree(kTooMany, rng); }, "4294967296");
}

TEST(GeneratorsTest, RandomGeometricRejectsNodeCountPastIndexRange) {
  Xoshiro256 rng(1);
  ExpectTooManyNodes([&] { MakeRandomGeometric(kTooMany, 0.1, rng); },
                     "4294967296");
}

TEST(GeneratorsTest, FromEdgeListRejectsNodeCountPastIndexRange) {
  Xoshiro256 rng(1);
  ExpectTooManyNodes([&] { FromEdgeList(kTooMany, {{0, 1}}, rng); },
                     "4294967296");
}

// The first size of each dense family whose edges EdgeIndex cannot
// number throws at once, naming the edge count and the limit.
void ExpectTooManyEdges(const std::function<void()>& make,
                        const std::string& count) {
  try {
    make();
    ADD_FAILURE() << "accepted " << count << " edges";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(" of " + count + " edges"), std::string::npos)
        << what;
    EXPECT_NE(what.find("at most 4294967295 edges"), std::string::npos)
        << what;
  }
}

TEST(GeneratorsTest, CompleteRejectsEdgeCountPastIndexRange) {
  Xoshiro256 rng(1);
  // 92,682 nodes have 4,294,930,221 edges, which fit.
  ExpectTooManyEdges([&] { MakeComplete(92683, rng); }, "4295022903");
}

TEST(GeneratorsTest, GridRejectsEdgeCountPastIndexRange) {
  Xoshiro256 rng(1);
  // 46,341 x 46,341 has 4,294,883,880 edges, which fit.
  ExpectTooManyEdges([&] { MakeGrid(46342, 46342, rng); }, "4295069244");
}

TEST(GeneratorsTest, BarbellRejectsEdgeCountPastIndexRange) {
  Xoshiro256 rng(1);
  // 131,072 nodes have 4,294,901,761 edges, which fit.
  ExpectTooManyEdges([&] { MakeBarbell(131073, rng); }, "4294967297");
}

TEST(GeneratorsTest, LollipopRejectsEdgeCountPastIndexRange) {
  Xoshiro256 rng(1);
  // 185,363 nodes have 4,294,930,222 edges, which fit.
  ExpectTooManyEdges([&] { MakeLollipop(185364, rng); }, "4295022903");
}

TEST(GeneratorsTest, LargestEdgeCountPassesTheCheck) {
  // Inclusive like the node bound: edge indices up to 2^32 - 2, below
  // kInvalidEdge. Checked on the bound alone, not by building.
  EXPECT_NO_THROW(CheckEdgeCount(kMaxEdgeCount, "graph"));
  ExpectTooManyEdges([] { CheckEdgeCount(kMaxEdgeCount + 1, "graph"); },
                     "4294967296");
}

TEST(GeneratorsTest, LargestNodeCountPassesTheCheck) {
  // The bound is inclusive: 2^32 - 1 nodes fit (indices up to 2^32 - 2,
  // below kInvalidNode). Checked on the bound alone, not by building.
  EXPECT_NO_THROW(CheckNodeCount(kMaxNodeCount, "graph"));
  EXPECT_NO_THROW(CheckNodeCount(65535, 65537, "grid"));  // 2^32 - 1
  EXPECT_NO_THROW(CheckNodeCount(0, kTooMany, "grid"));
}

// --- golden graphs -----------------------------------------------------
//
// Every family's graph at a fixed seed, pinned as one FNV-1a digest per
// cell over n, m, N, every edge (u, v, weight) in edge order, every ID,
// every node's port table, and the generator's next draw after set-up
// (which pins how many draws set-up made). Each family is recorded with
// default options, with shuffle_ids = false and with max_id >> n (the
// SampleIds path). A change to how graphs are set up (sampling, sorting,
// the builder's checks) must leave every row as it is; on a mismatch the
// test prints the cell's actual row in table syntax.

struct GraphGolden {
  const char* cell;
  std::uint64_t n;
  std::uint64_t m;
  std::uint64_t digest;
};

// clang-format off
const GraphGolden kGraphGolden[] = {
    {"path-64/default", 64, 63, 0x26aa340e64a0412aull},
    {"path-64/ordered", 64, 63, 0x918fba5b5e7ca7cfull},
    {"path-64/sparse", 64, 63, 0xe996da3619019691ull},
    {"ring-64/default", 64, 64, 0x2cacc81010a292dcull},
    {"ring-64/ordered", 64, 64, 0xc585e896fa3c8a25ull},
    {"ring-64/sparse", 64, 64, 0xde39f4347d0a9852ull},
    {"ring-4096/default", 4096, 4096, 0x8fe3faf2b763b770ull},
    {"ring-4096/ordered", 4096, 4096, 0x21f810e667d0c7afull},
    {"ring-4096/sparse", 4096, 4096, 0x19ee1c6855d41a2dull},
    {"star-33/default", 33, 32, 0x1b21fc0283417d3dull},
    {"star-33/ordered", 33, 32, 0x27662620acce7a34ull},
    {"star-33/sparse", 33, 32, 0x4fe868251b6f7752ull},
    {"complete-24/default", 24, 276, 0x3978046013340a24ull},
    {"complete-24/ordered", 24, 276, 0xf86b93607abd7ecull},
    {"complete-24/sparse", 24, 276, 0x2b79f6a7cf545745ull},
    {"binary-tree-63/default", 63, 62, 0x2c1957fb127a2a1ull},
    {"binary-tree-63/ordered", 63, 62, 0xf80bfa140c7ba902ull},
    {"binary-tree-63/sparse", 63, 62, 0x71f1d36bdbc4d360ull},
    {"grid-7x9/default", 63, 110, 0xf487bc24175518a9ull},
    {"grid-7x9/ordered", 63, 110, 0x5b947aa553fdc12eull},
    {"grid-7x9/sparse", 63, 110, 0xbffe6143d10482ccull},
    {"barbell-21/default", 21, 101, 0x429f8cc6a96433e5ull},
    {"barbell-21/ordered", 21, 101, 0x9513fc96b737f5acull},
    {"barbell-21/sparse", 21, 101, 0xc97add12cbc0ae5ull},
    {"hypercube-6/default", 64, 192, 0x168b6558fe9cf0d8ull},
    {"hypercube-6/ordered", 64, 192, 0x59db41238afeef47ull},
    {"hypercube-6/sparse", 64, 192, 0x104fa24e49b94e6full},
    {"caterpillar-17/default", 34, 33, 0xba875d601e1f4797ull},
    {"caterpillar-17/ordered", 34, 33, 0x222fa42b8544cb45ull},
    {"caterpillar-17/sparse", 34, 33, 0xe33b34d1888add69ull},
    {"lollipop-25/default", 25, 79, 0x92478ffd76ab0b42ull},
    {"lollipop-25/ordered", 25, 79, 0xf8cf3b6ba4424bf5ull},
    {"lollipop-25/sparse", 25, 79, 0x1c9bc3273e874a25ull},
    {"er-128/default", 128, 372, 0x3f6ad207cb1d7ff8ull},
    {"er-128/ordered", 128, 372, 0xac5a40904e96793dull},
    {"er-128/sparse", 128, 372, 0xcdb63ccb45527c70ull},
    {"er-2048/default", 2048, 8280, 0x1fe7f9da073900dcull},
    {"er-2048/ordered", 2048, 8280, 0xbdba7d95526c0ff3ull},
    {"er-2048/sparse", 2048, 8280, 0x622800f7f9a1345cull},
    {"random-tree-100/default", 100, 99, 0x232c0abcc4f06516ull},
    {"random-tree-100/ordered", 100, 99, 0xe7ba0a82bc5f60ceull},
    {"random-tree-100/sparse", 100, 99, 0x8e795accf5305425ull},
    {"geometric-120/default", 120, 419, 0xa5e8faf2f6efbad6ull},
    {"geometric-120/ordered", 120, 419, 0xb13ec49b956762ecull},
    {"geometric-120/sparse", 120, 419, 0x2b27ea288220f759ull},
    {"edge-list-6/default", 6, 7, 0x79ba8c6b924de40aull},
    {"edge-list-6/ordered", 6, 7, 0xddc3cd416ba8222eull},
    {"edge-list-6/sparse", 6, 7, 0xefabcaed024849c3ull},
    {"ring-256/max-id-4294967296", 256, 256, 0x934d7453df3f5578ull},
    {"ring-256/max-id-1099511627776", 256, 256, 0x111e41817aa7a1a0ull},
    {"ring-256/max-id-18446744073709551615", 256, 256, 0xdf19fbfaa2034cbaull},
    {"er-512/max-id-4294967296", 512, 2075, 0x35f0e7ab9d7f9516ull},
    {"grc-4x8", 35, 46, 0x787d01f98b730a9ull},
    {"grc-6x24", 151, 192, 0xc38abe06ad2a5a7ull},
    {"grc-16x64", 1039, 1278, 0x9ce087af9897a44cull},
    {"css-6x24/random", 151, 192, 0xbd5888f1e74e7c17ull},
    {"css-6x24/intersecting", 151, 192, 0x4fbe796b350142full},
};
// clang-format on

class GraphDigest {
 public:
  void Word(std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (x >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ull;
    }
  }
  void Graph(const WeightedGraph& g) {
    Word(g.NumNodes());
    Word(g.NumEdges());
    Word(g.MaxId());
    for (const Edge& e : g.Edges()) {
      Word(e.u);
      Word(e.v);
      Word(e.weight);
    }
    for (NodeIndex v = 0; v < g.NumNodes(); ++v) Word(g.IdOf(v));
    for (NodeIndex v = 0; v < g.NumNodes(); ++v) {
      for (const Port& p : g.PortsOf(v)) {
        Word(p.neighbor);
        Word(p.edge);
      }
    }
  }
  std::uint64_t Value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

struct GraphCell {
  std::string name;
  // Builds the cell's graph from `rng`; `digest` may absorb extra
  // outputs (the CSS encoding's marking).
  std::function<WeightedGraph(Xoshiro256& rng, GraphDigest& digest)> make;
};

std::vector<GraphCell> GraphCells() {
  using Family = std::function<WeightedGraph(Xoshiro256&,
                                             const GeneratorOptions&)>;
  const std::vector<std::pair<std::string, Family>> families = {
      {"path-64", [](Xoshiro256& r, const GeneratorOptions& o) {
         return MakePath(64, r, o); }},
      {"ring-64", [](Xoshiro256& r, const GeneratorOptions& o) {
         return MakeRing(64, r, o); }},
      {"ring-4096", [](Xoshiro256& r, const GeneratorOptions& o) {
         return MakeRing(4096, r, o); }},
      {"star-33", [](Xoshiro256& r, const GeneratorOptions& o) {
         return MakeStar(33, r, o); }},
      {"complete-24", [](Xoshiro256& r, const GeneratorOptions& o) {
         return MakeComplete(24, r, o); }},
      {"binary-tree-63", [](Xoshiro256& r, const GeneratorOptions& o) {
         return MakeBinaryTree(63, r, o); }},
      {"grid-7x9", [](Xoshiro256& r, const GeneratorOptions& o) {
         return MakeGrid(7, 9, r, o); }},
      {"barbell-21", [](Xoshiro256& r, const GeneratorOptions& o) {
         return MakeBarbell(21, r, o); }},
      {"hypercube-6", [](Xoshiro256& r, const GeneratorOptions& o) {
         return MakeHypercube(6, r, o); }},
      {"caterpillar-17", [](Xoshiro256& r, const GeneratorOptions& o) {
         return MakeCaterpillar(17, r, o); }},
      {"lollipop-25", [](Xoshiro256& r, const GeneratorOptions& o) {
         return MakeLollipop(25, r, o); }},
      {"er-128", [](Xoshiro256& r, const GeneratorOptions& o) {
         return MakeErdosRenyi(128, 0.05, r, o); }},
      {"er-2048", [](Xoshiro256& r, const GeneratorOptions& o) {
         return MakeErdosRenyi(2048, 8.0 / 2048, r, o); }},
      {"random-tree-100", [](Xoshiro256& r, const GeneratorOptions& o) {
         return MakeRandomTree(100, r, o); }},
      {"geometric-120", [](Xoshiro256& r, const GeneratorOptions& o) {
         return MakeRandomGeometric(120, 0.15, r, o); }},
      {"edge-list-6", [](Xoshiro256& r, const GeneratorOptions& o) {
         return FromEdgeList(6, {{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5},
                                 {5, 3}, {0, 3}}, r, o); }},
  };
  GeneratorOptions ordered;
  ordered.shuffle_ids = false;
  std::vector<GraphCell> cells;
  for (const auto& [name, family] : families) {
    cells.push_back({name + "/default", [family](Xoshiro256& r, GraphDigest&) {
                       return family(r, {});
                     }});
    cells.push_back({name + "/ordered",
                     [family, ordered](Xoshiro256& r, GraphDigest&) {
                       return family(r, ordered);
                     }});
    cells.push_back({name + "/sparse", [family](Xoshiro256& r, GraphDigest&) {
                       GeneratorOptions sparse;
                       sparse.max_id = 1000000;
                       return family(r, sparse);
                     }});
  }
  // ID ranges past 2^32: SampleDistinct's sort then needs five or more
  // byte passes.
  for (const std::uint64_t max_id : {std::uint64_t{1} << 32,
                                     std::uint64_t{1} << 40,
                                     ~std::uint64_t{0}}) {
    cells.push_back({"ring-256/max-id-" + std::to_string(max_id),
                     [max_id](Xoshiro256& r, GraphDigest&) {
                       GeneratorOptions wide;
                       wide.max_id = max_id;
                       return MakeRing(256, r, wide);
                     }});
  }
  cells.push_back({"er-512/max-id-4294967296", [](Xoshiro256& r, GraphDigest&) {
                     GeneratorOptions wide;
                     wide.max_id = std::uint64_t{1} << 32;
                     return MakeErdosRenyi(512, 8.0 / 512, r, wide);
                   }});
  for (const auto& [rows, cols] :
       {std::pair<std::size_t, std::size_t>{4, 8}, {6, 24}, {16, 64}}) {
    cells.push_back(
        {"grc-" + std::to_string(rows) + "x" + std::to_string(cols),
         [rows, cols](Xoshiro256& r, GraphDigest&) {
           return BuildGrc(rows, cols, r).graph;
         }});
  }
  for (const bool intersecting : {false, true}) {
    cells.push_back(
        {std::string("css-6x24/") + (intersecting ? "intersecting" : "random"),
         [intersecting](Xoshiro256& r, GraphDigest& d) {
           const GrcInstance grc = BuildGrc(6, 24, r);
           const SdInstance sd = RandomSdInstance(5, r, intersecting);
           CssEncoding enc = EncodeCssAsMstWeights(grc, sd, r);
           d.Word(enc.marked_count);
           for (const bool marked : enc.marked) d.Word(marked ? 1 : 0);
           return std::move(enc.graph);
         }});
  }
  return cells;
}

TEST(GeneratorGoldenTest, GraphsMatchTheRecords) {
  const std::vector<GraphCell> cells = GraphCells();
  EXPECT_EQ(std::size(kGraphGolden), cells.size()) << "table out of date";
  std::ostringstream actual;
  for (const GraphCell& cell : cells) {
    Xoshiro256 rng(19);
    GraphDigest d;
    const WeightedGraph g = cell.make(rng, d);
    d.Graph(g);
    d.Word(rng.Next());
    std::ostringstream row;
    row << "{\"" << cell.name << "\", " << g.NumNodes() << ", "
        << g.NumEdges() << ", 0x" << std::hex << d.Value() << "ull},";
    actual << "    " << row.str() << "\n";
    const GraphGolden* want = nullptr;
    for (const GraphGolden& gg : kGraphGolden) {
      if (cell.name == gg.cell) want = &gg;
    }
    if (want == nullptr) {
      ADD_FAILURE() << "no record for " << cell.name;
      continue;
    }
    EXPECT_EQ(g.NumNodes(), want->n) << row.str();
    EXPECT_EQ(g.NumEdges(), want->m) << row.str();
    EXPECT_EQ(d.Value(), want->digest) << row.str();
  }
  if (HasFailure()) std::cout << "actual rows:\n" << actual.str();
}

// --- exact replay ------------------------------------------------------
//
// MakeErdosRenyi against the pair loop it replays (tests/test_util.h),
// across the edge cases of p: the digest GeneratorGoldenTest takes,
// which includes the generator's next draw, must be equal.

std::uint64_t ReplayDigest(const WeightedGraph& g, Xoshiro256& rng) {
  GraphDigest d;
  d.Graph(g);
  d.Word(rng.Next());
  return d.Value();
}

TEST(GeneratorReplayTest, ErdosRenyiMatchesThePairLoop) {
  using limits = std::numeric_limits<double>;
  for (const double p : {0.0, limits::denorm_min(), 1e-300, 8.0 / 2048, 0.3,
                         std::nextafter(1.0, 0.0), 1.0, 2.0,
                         limits::infinity()}) {
    std::vector<std::size_t> sizes = {1, 2, 3, 64};
    if (p <= 8.0 / 2048) sizes.push_back(700);
    for (const std::size_t n : sizes) {
      for (const std::uint64_t seed : {1, 2, 3}) {
        Xoshiro256 rng(seed);
        Xoshiro256 pair_rng(seed);
        const WeightedGraph g = MakeErdosRenyi(n, p, rng);
        const WeightedGraph want =
            testing::PairLoopErdosRenyi(n, p, pair_rng);
        EXPECT_EQ(g.NumEdges(), want.NumEdges());
        EXPECT_EQ(ReplayDigest(g, rng), ReplayDigest(want, pair_rng))
            << "p=" << p << " n=" << n << " seed=" << seed;
      }
    }
  }
}

}  // namespace
}  // namespace smst
