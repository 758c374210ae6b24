// Tests for the lower-bound constructions: the G_rc family (Figure 1 /
// Observation 1), the SD -> CSS -> MST encoding chain (§3.2), and the
// Theorem-3 ring experiment machinery.
#include <cmath>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "smst/graph/generators.h"
#include "smst/graph/mst_reference.h"
#include "smst/graph/properties.h"
#include "smst/lower_bounds/grc.h"
#include "smst/lower_bounds/ring_experiment.h"
#include "smst/lower_bounds/set_disjointness.h"
#include "smst/mst/randomized_mst.h"

namespace smst {
namespace {

// ------------------------------------------------------------- G_rc ----

TEST(GrcTest, StructureMatchesFigure1) {
  Xoshiro256 rng(1);
  auto inst = BuildGrc(5, 40, rng);
  const auto& g = inst.graph;
  // rows*cols grid nodes + |X|-1 tree internals.
  EXPECT_EQ(g.NumNodes(), 5 * 40 + inst.x_cols.size() - 1);
  // X is a power of two containing the first and last columns.
  EXPECT_EQ(inst.x_cols.size() & (inst.x_cols.size() - 1), 0u);
  EXPECT_EQ(inst.x_cols.front(), 0u);
  EXPECT_EQ(inst.x_cols.back(), 39u);
  // Alice and Bob sit at the ends of row 1.
  EXPECT_EQ(inst.alice, inst.node_at[0][0]);
  EXPECT_EQ(inst.bob, inst.node_at[0][39]);
  // One attachment edge per other row on each side.
  EXPECT_EQ(inst.alice_row_edges.size(), 4u);
  EXPECT_EQ(inst.bob_row_edges.size(), 4u);
  for (EdgeIndex e : inst.alice_row_edges) {
    EXPECT_TRUE(g.GetEdge(e).u == inst.alice || g.GetEdge(e).v == inst.alice);
  }
}

TEST(GrcTest, BackboneSpansTheGraph) {
  Xoshiro256 rng(2);
  auto inst = BuildGrc(4, 32, rng);
  // Backbone + all Alice/Bob attachments marked = the all-zero SD
  // instance; it must span (and indeed the backbone alone must not).
  std::vector<bool> marked(inst.graph.NumEdges(), false);
  for (EdgeIndex e : inst.backbone_edges) marked[e] = true;
  EXPECT_FALSE(MarkedSubgraphSpans(inst.graph, marked));
  for (EdgeIndex e : inst.alice_row_edges) marked[e] = true;
  for (EdgeIndex e : inst.bob_row_edges) marked[e] = true;
  EXPECT_TRUE(MarkedSubgraphSpans(inst.graph, marked));
}

TEST(GrcTest, Observation1DiameterIsOColOverLog) {
  // D = Theta(c / log n): the X highway + tree shortcut beats the c-hop
  // row distance by a log factor.
  Xoshiro256 rng(3);
  for (std::size_t cols : {64u, 128u, 256u}) {
    auto inst = BuildGrc(4, cols, rng);
    const auto d = ExactDiameter(inst.graph);
    const double n = static_cast<double>(inst.graph.NumNodes());
    const double bound = static_cast<double>(cols) / std::log2(n);
    EXPECT_LE(d, 8 * bound + 2 * std::log2(n) + 8) << "cols=" << cols;
    EXPECT_GE(d, bound / 8) << "cols=" << cols;
    // And much smaller than the naive row distance.
    EXPECT_LT(d, cols);
  }
}

TEST(GrcTest, RegimeProducesValidParams) {
  for (std::size_t n : {100u, 1000u, 5000u}) {
    auto [rows, cols] = GrcRegimeForSize(n);
    EXPECT_GE(rows, 2u);
    EXPECT_GE(cols, 4u);
    EXPECT_GT(cols, rows);  // the paper's c >> r regime
  }
}

TEST(GrcTest, RejectsDegenerateParams) {
  Xoshiro256 rng(4);
  EXPECT_THROW(BuildGrc(1, 40, rng), std::invalid_argument);
  EXPECT_THROW(BuildGrc(5, 2, rng), std::invalid_argument);
}

TEST(GrcTest, RejectsNodeCountPastIndexRange) {
  // Refused on entry: rows * cols once wrapped its NodeIndex cast, after
  // the row-major node grid was allocated in full.
  Xoshiro256 rng(4);
  for (const auto& [rows, cols] :
       {std::pair<std::size_t, std::size_t>{65536, 65536},
        {std::size_t{1} << 33, std::size_t{1} << 33}}) {
    try {
      BuildGrc(rows, cols, rng);
      ADD_FAILURE() << "accepted " << rows << " x " << cols;
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()),
                "G_rc of " + std::to_string(rows) + " x " +
                    std::to_string(cols) +
                    " nodes exceeds the node index range (at most "
                    "4294967295 nodes)");
    }
  }
  // rows * cols fits but the tree internals push the total past it.
  try {
    BuildGrc(65535, 65537, rng);
    ADD_FAILURE() << "accepted 65535 x 65537 plus tree internals";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("G_rc of 42949673"),
              std::string::npos)
        << e.what();
  }
}

// --------------------------------------------------- SD / CSS / MST ----

TEST(SdTest, DisjointnessPredicate) {
  SdInstance sd;
  sd.x = {true, false, true};
  sd.y = {false, true, false};
  EXPECT_TRUE(sd.Disjoint());
  sd.y[2] = true;
  EXPECT_FALSE(sd.Disjoint());
}

TEST(SdTest, ForcedIntersectionIntersects) {
  Xoshiro256 rng(5);
  for (int i = 0; i < 20; ++i) {
    EXPECT_FALSE(RandomSdInstance(16, rng, true).Disjoint());
  }
}

TEST(CssTest, MarkedSpansIffDisjoint) {
  Xoshiro256 rng(6);
  auto inst = BuildGrc(6, 24, rng);
  for (int trial = 0; trial < 10; ++trial) {
    auto sd = RandomSdInstance(5, rng, trial % 2 == 0);
    auto enc = EncodeCssAsMstWeights(inst, sd, rng);
    EXPECT_EQ(MarkedSubgraphSpans(enc.graph, enc.marked), sd.Disjoint());
  }
}

TEST(CssTest, MarkedEdgesAreAllLighter) {
  Xoshiro256 rng(7);
  auto inst = BuildGrc(4, 16, rng);
  auto sd = RandomSdInstance(3, rng, false);
  auto enc = EncodeCssAsMstWeights(inst, sd, rng);
  Weight max_marked = 0, min_unmarked = kPlusInfinity;
  for (EdgeIndex e = 0; e < enc.graph.NumEdges(); ++e) {
    const Weight w = enc.graph.GetEdge(e).weight;
    if (enc.marked[e]) max_marked = std::max(max_marked, w);
    else min_unmarked = std::min(min_unmarked, w);
  }
  EXPECT_LT(max_marked, min_unmarked);
}

TEST(CssTest, MstReadoutSolvesSetDisjointness) {
  // The full reduction, end to end: encode SD as weights, solve MST with
  // the *distributed sleeping algorithm*, read the SD answer back off.
  Xoshiro256 rng(8);
  auto inst = BuildGrc(5, 16, rng);
  for (int trial = 0; trial < 6; ++trial) {
    auto sd = RandomSdInstance(4, rng, trial % 2 == 0);
    auto enc = EncodeCssAsMstWeights(inst, sd, rng);
    auto run = RunRandomizedMst(enc.graph, {.seed = 100u + trial});
    ASSERT_EQ(run.consistency_error, "");
    // Sequential cross-check.
    EXPECT_EQ(run.tree_edges, KruskalMst(enc.graph));
    EXPECT_EQ(SdAnswerFromMst(enc, run.tree_edges), sd.Disjoint())
        << "trial " << trial;
  }
}

// ---------------------------------------------------- Ring (Thm 3) -----

TEST(RingTest, TwoHeaviestSeparationIsOftenLinear) {
  // With constant probability the separation is Omega(n); over 40 seeds
  // the mean should be well above n/8 (uniform positions -> mean ~ n/4).
  const std::size_t n = 200;
  double total = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Xoshiro256 rng(seed);
    auto g = MakeRing(n, rng);
    total += static_cast<double>(TwoHeaviestEdgeSeparation(g));
  }
  EXPECT_GT(total / 40.0, n / 8.0);
}

TEST(RingTest, AwakeFloorGrowsLogarithmically) {
  EXPECT_NEAR(RingAwakeFloor(13 * 13), 2.0, 1e-9);
  EXPECT_GT(RingAwakeFloor(10000), RingAwakeFloor(100));
}

TEST(RingReplayTest, KnowledgeSpreadsOneHopPerSharedAwakeRound) {
  // 4-node ring; nodes 0 and 1 awake together in round 1; node 2 never
  // shares a round with anyone.
  std::vector<std::vector<std::uint64_t>> wakes{
      {1, 2}, {1}, {3}, {2}};
  auto k = ReplayRingKnowledge(4, wakes, 0);
  // Node 0 heard node 1 in round 1 (right += 1); node 3 in round 2.
  EXPECT_EQ(k[0].right, 1u);
  EXPECT_EQ(k[0].left, 1u);
  // Node 1 heard node 0 only.
  EXPECT_EQ(k[1].left, 1u);
  EXPECT_EQ(k[1].right, 0u);
  // Node 2 heard nobody.
  EXPECT_EQ(k[2].left, 0u);
  EXPECT_EQ(k[2].right, 0u);
}

TEST(RingReplayTest, TransitiveKnowledgeTravels) {
  // Chain of shared rounds: (0,1)@1 then (1,2)@2: node 2 learns about 0.
  std::vector<std::vector<std::uint64_t>> wakes{{1}, {1, 2}, {2}, {}};
  // Node 3 never wakes (allowed: replay only, not a protocol).
  auto k = ReplayRingKnowledge(4, wakes, 0);
  EXPECT_EQ(k[2].left, 2u);  // knows node 1 and node 0
}

TEST(RingReplayTest, RepeatedExchangeAddsNothingWithoutNewInformation) {
  // Nodes 0 and 1 exchange twice; node 1 never learns anything new, so
  // node 0's knowledge stays one hop.
  std::vector<std::vector<std::uint64_t>> wakes{{1, 2}, {1, 2}, {}, {}};
  auto k = ReplayRingKnowledge(4, wakes, 0);
  EXPECT_EQ(k[0].right, 1u);
  EXPECT_EQ(k[0].left, 0u);
}

TEST(RingReplayTest, BudgetSnapshotsEarlierKnowledge) {
  // Node 0 hears node 1 at its 1st wake and node 3 at its 2nd.
  std::vector<std::vector<std::uint64_t>> wakes{{1, 2}, {1}, {}, {2}};
  auto k1 = ReplayRingKnowledge(4, wakes, 1);
  auto k2 = ReplayRingKnowledge(4, wakes, 2);
  EXPECT_EQ(k1[0].right, 1u);
  EXPECT_EQ(k1[0].left, 0u);  // after the first wake, node 3 unheard
  EXPECT_EQ(k2[0].right, 1u);
  EXPECT_EQ(k2[0].left, 1u);
}

TEST(RingIsolationTest, MeasuredOnARealRun) {
  const std::size_t n = 169;  // 13^2
  Xoshiro256 rng(99);
  auto g = MakeRing(n, rng);
  MstOptions opt;
  opt.seed = 99;
  opt.record_wake_times = true;
  auto run = RunRandomizedMst(g, opt);
  ASSERT_EQ(run.wake_times.size(), n);
  const double f1 = SegmentIsolationFraction(n, run.wake_times, 1);
  // Isolation fractions are probabilities in [0, 1]; for a=0 the segment
  // length is 1 and isolation means "never heard anything by wake 0" —
  // trivially true.
  EXPECT_GE(f1, 0.0);
  EXPECT_LE(f1, 1.0);
  const double f0 = SegmentIsolationFraction(n, run.wake_times, 0);
  EXPECT_EQ(f0, 1.0);
}

TEST(RingIsolationTest, SegmentLongerThanRingGivesZero) {
  std::vector<std::vector<std::uint64_t>> wakes(10);
  EXPECT_EQ(SegmentIsolationFraction(10, wakes, 3), 0.0);
}

}  // namespace
}  // namespace smst
