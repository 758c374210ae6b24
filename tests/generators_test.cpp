#include <cmath>
#include <set>
#include <stdexcept>

#include <gtest/gtest.h>

#include "smst/graph/generators.h"
#include "smst/graph/properties.h"

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

}  // namespace
}  // namespace smst
