// End-to-end tests: both sleeping-model MST algorithms (and the
// spanning-tree / baseline variants) against the sequential ground truth,
// across a matrix of graph families, sizes and seeds; plus the paper's
// complexity claims as measured properties.
#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "smst/graph/generators.h"
#include "smst/graph/mst_reference.h"
#include "smst/graph/mst_verify.h"
#include "smst/graph/properties.h"
#include "smst/mst/api.h"
#include "smst/mst/deterministic_mst.h"
#include "smst/mst/ghs_congest.h"
#include "smst/mst/randomized_mst.h"
#include "smst/mst/spanning_tree_bm.h"
#include "smst/sleeping/ldt.h"

namespace smst {
namespace {

WeightedGraph MakeFamily(int family, std::size_t n, Xoshiro256& rng) {
  switch (family) {
    case 0: return MakeErdosRenyi(n, 4.0 / static_cast<double>(n), rng);
    case 1: return MakeRing(n, rng);
    case 2: return MakePath(n, rng);
    case 3: return MakeComplete(std::min<std::size_t>(n, 24), rng);
    case 4: return MakeRandomGeometric(n, 0.25, rng);
    case 5: return MakeRandomTree(n, rng);
    case 6: return MakeGrid(4, (n + 3) / 4, rng);
    default: return MakeStar(n, rng);
  }
}

void ExpectExactMst(const WeightedGraph& g, const MstRunResult& r) {
  EXPECT_EQ(r.consistency_error, "") << r.consistency_error;
  auto check = VerifyExactMst(g, r.tree_edges);
  EXPECT_TRUE(check.ok) << check.error;
  // The final forest must be one LDT spanning the graph.
  EXPECT_EQ(CheckForestInvariant(g, r.final_ldt), "");
  std::set<NodeId> frag_ids;
  for (const LdtState& s : r.final_ldt) frag_ids.insert(s.fragment_id);
  EXPECT_EQ(frag_ids.size(), 1u);
}

// ----------------------------------------------------- Randomized-MST --

class RandomizedMstTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(RandomizedMstTest, ComputesTheExactMst) {
  auto [family, size_class, seed] = GetParam();
  const std::size_t n = size_class == 0 ? 16 : (size_class == 1 ? 48 : 96);
  Xoshiro256 rng(static_cast<std::uint64_t>(seed) * 1000 + family);
  auto g = MakeFamily(family, n, rng);
  auto r = RunRandomizedMst(g, {.seed = static_cast<std::uint64_t>(seed)});
  ExpectExactMst(g, r);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, RandomizedMstTest,
    ::testing::Combine(::testing::Range(0, 8), ::testing::Range(0, 3),
                       ::testing::Values(1, 2, 3)));

TEST(RandomizedMstTest, PaperPhaseCountModeAlsoSucceeds) {
  Xoshiro256 rng(5);
  auto g = MakeErdosRenyi(40, 0.15, rng);
  MstOptions opt;
  opt.seed = 5;
  opt.termination = TerminationMode::kPaperPhaseCount;
  auto r = RunRandomizedMst(g, opt);
  ExpectExactMst(g, r);
  EXPECT_LE(r.phases, RandomizedPaperPhaseCount(40));
}

TEST(RandomizedMstTest, AwakeComplexityIsLogarithmic) {
  // max_awake <= c * log2 n with one modest c across a 16x size range —
  // the O(log n) claim of Theorem 1 as a measured property.
  for (std::size_t n : {32u, 128u, 512u}) {
    Xoshiro256 rng(n);
    auto g = MakeErdosRenyi(n, 6.0 / static_cast<double>(n), rng);
    auto r = RunRandomizedMst(g, {.seed = 7});
    const double c = static_cast<double>(r.stats.max_awake) /
                     std::log2(static_cast<double>(n));
    EXPECT_LE(c, 40.0) << "n=" << n << " awake=" << r.stats.max_awake;
  }
}

TEST(RandomizedMstTest, RoundComplexityIsWithinPhaseBudget) {
  Xoshiro256 rng(11);
  const std::size_t n = 64;
  auto g = MakeRing(n, rng);
  auto r = RunRandomizedMst(g, {.seed = 11});
  // rounds <= phases * 9 blocks * (2n+1).
  EXPECT_LE(r.stats.rounds,
            r.phases * kRandomizedBlocksPerPhase * (2 * n + 1));
}

TEST(RandomizedMstTest, FragmentCountNeverIncreases) {
  Xoshiro256 rng(13);
  auto g = MakeErdosRenyi(80, 0.1, rng);
  auto r = RunRandomizedMst(g, {.seed = 13});
  ASSERT_GE(r.phases, 1u);
  EXPECT_EQ(r.fragments_per_phase[1], 80u);  // all singletons at start
  for (std::uint64_t p = 2; p <= r.phases; ++p) {
    EXPECT_LE(r.fragments_per_phase[p], r.fragments_per_phase[p - 1]);
  }
  EXPECT_EQ(r.fragments_per_phase[r.phases], 1u);  // DONE phase
}

TEST(RandomizedMstTest, DeterministicUnderFixedSeed) {
  Xoshiro256 rng(17);
  auto g = MakeErdosRenyi(50, 0.12, rng);
  auto a = RunRandomizedMst(g, {.seed = 3});
  auto b = RunRandomizedMst(g, {.seed = 3});
  EXPECT_EQ(a.tree_edges, b.tree_edges);
  EXPECT_EQ(a.stats.rounds, b.stats.rounds);
  EXPECT_EQ(a.stats.max_awake, b.stats.max_awake);
  EXPECT_EQ(a.phases, b.phases);
}

TEST(RandomizedMstTest, MessagesRespectTheCongestBudget) {
  Xoshiro256 rng(19);
  const std::size_t n = 64;
  auto g = MakeErdosRenyi(n, 0.1, rng);
  auto r = RunRandomizedMst(g, {.seed = 19});
  // O(log n) bits: tag + 3 fields, each holding an ID/weight/level of
  // poly(n) magnitude.
  EXPECT_LE(r.stats.max_message_bits,
            8 + 3 * (std::bit_width(g.MaxId()) +
                     std::bit_width(std::uint64_t{1} << 25) + 8));
}

TEST(RandomizedMstTest, TinyGraphs) {
  for (std::size_t n : {2u, 3u, 4u}) {
    GraphBuilder b(n);
    for (NodeIndex v = 0; v + 1 < n; ++v) b.AddEdge(v, v + 1, v + 1);
    auto g = std::move(b).Build();
    auto r = RunRandomizedMst(g, {.seed = 1});
    ExpectExactMst(g, r);
    EXPECT_EQ(r.tree_edges.size(), n - 1);
  }
}

// -------------------------------------------------- Deterministic-MST --

class DeterministicMstTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(DeterministicMstTest, ComputesTheExactMst) {
  auto [family, seed] = GetParam();
  const std::size_t n = 40;
  Xoshiro256 rng(static_cast<std::uint64_t>(seed) * 77 + family);
  auto g = MakeFamily(family, n, rng);
  auto r = RunDeterministicMst(g, {.seed = static_cast<std::uint64_t>(seed)});
  ExpectExactMst(g, r);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, DeterministicMstTest,
    ::testing::Combine(::testing::Range(0, 8), ::testing::Values(1, 2)));

TEST(DeterministicMstTest, SparseIdRange) {
  // N = 10 * n: the run time grows with N, the result must not change.
  Xoshiro256 rng(23);
  GeneratorOptions gopt;
  gopt.max_id = 300;
  auto g = MakeErdosRenyi(30, 0.15, rng, gopt);
  auto r = RunDeterministicMst(g, {.seed = 23});
  ExpectExactMst(g, r);
}

TEST(DeterministicMstTest, SeedDoesNotChangeTheOutcome) {
  // The algorithm is deterministic: different seeds, same everything.
  Xoshiro256 rng(29);
  auto g = MakeErdosRenyi(36, 0.15, rng);
  auto a = RunDeterministicMst(g, {.seed = 1});
  auto b = RunDeterministicMst(g, {.seed = 999});
  EXPECT_EQ(a.tree_edges, b.tree_edges);
  EXPECT_EQ(a.stats.rounds, b.stats.rounds);
  EXPECT_EQ(a.stats.max_awake, b.stats.max_awake);
}

TEST(DeterministicMstTest, AwakeComplexityIsLogarithmic) {
  for (std::size_t n : {16u, 64u, 256u}) {
    Xoshiro256 rng(n);
    auto g = MakeErdosRenyi(n, 6.0 / static_cast<double>(n), rng);
    auto r = RunDeterministicMst(g, {.seed = 7});
    const double c = static_cast<double>(r.stats.max_awake) /
                     std::log2(static_cast<double>(n));
    EXPECT_LE(c, 60.0) << "n=" << n << " awake=" << r.stats.max_awake;
  }
}

TEST(DeterministicMstTest, RunTimeScalesWithN) {
  // Same graph topology/weights, IDs drawn from [1, N] for growing N:
  // rounds grow with N (the O(nN log n) term), awake stays put.
  std::vector<std::uint64_t> rounds;
  std::vector<std::uint64_t> awake;
  for (NodeId N : {32u, 128u, 512u}) {
    Xoshiro256 rng(31);  // same seed: same topology and weights
    GeneratorOptions gopt;
    gopt.max_id = N;
    auto g = MakeErdosRenyi(32, 0.15, rng, gopt);
    auto r = RunDeterministicMst(g, {.seed = 31});
    ExpectExactMst(g, r);
    rounds.push_back(r.stats.rounds);
    awake.push_back(r.stats.max_awake);
  }
  EXPECT_GT(rounds[1], rounds[0]);
  EXPECT_GT(rounds[2], rounds[1]);
  // Awake complexity must not grow with N (phases may differ slightly,
  // allow a small factor).
  EXPECT_LE(awake[2], awake[0] * 2);
}

TEST(DeterministicMstTest, BluesAreAtLeastOnePerPhase) {
  Xoshiro256 rng(37);
  auto g = MakeErdosRenyi(48, 0.12, rng);
  auto r = RunDeterministicMst(g, {.seed = 37});
  for (std::uint64_t p = 1; p < r.phases; ++p) {  // last phase is DONE-only
    EXPECT_GE(r.blue_per_phase[p], 1u) << "phase " << p;
  }
}

// ----------------------------------------- Corollary 1 (log* variant) --

class LogStarMstTest : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(LogStarMstTest, ComputesTheExactMst) {
  auto [family, seed] = GetParam();
  const std::size_t n = 36;
  Xoshiro256 rng(static_cast<std::uint64_t>(seed) * 131 + family);
  auto g = MakeFamily(family, n, rng);
  MstOptions opt;
  opt.seed = static_cast<std::uint64_t>(seed);
  auto r = RunDeterministicLogStarMst(g, opt);
  ExpectExactMst(g, r);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, LogStarMstTest,
    ::testing::Combine(::testing::Range(0, 8), ::testing::Values(1, 2)));

TEST(LogStarMstTest, RunTimeIndependentOfN) {
  // Corollary 1's point: unlike Fast-Awake-Coloring, the log* variant's
  // round complexity does not scale with the ID range N.
  std::vector<std::uint64_t> rounds;
  for (NodeId N : {64u, 1024u}) {
    Xoshiro256 rng(31);
    GeneratorOptions gopt;
    gopt.max_id = N;
    auto g = MakeErdosRenyi(32, 0.15, rng, gopt);
    MstOptions opt;
    opt.seed = 31;
    auto r = RunDeterministicLogStarMst(g, opt);
    ExpectExactMst(g, r);
    rounds.push_back(r.stats.rounds);
  }
  // A 16x larger N must not cost anywhere near 16x the rounds (phase
  // counts can wiggle; allow 2x).
  EXPECT_LE(rounds[1], rounds[0] * 2);
}

TEST(LogStarMstTest, ApiDispatch) {
  Xoshiro256 rng(59);
  auto g = MakeErdosRenyi(28, 0.2, rng);
  auto r = ComputeMst(g, MstAlgorithm::kDeterministicLogStar, {.seed = 59});
  EXPECT_EQ(r.tree_edges, KruskalMst(g));
}

TEST(DeterministicMstTest, PaperPhaseBudgetIsAstronomicalButFinite) {
  // ceil(log_{240000/239999} n) + 240000: document the constant.
  EXPECT_GT(DeterministicPaperPhaseCount(100), 1000000u);
  EXPECT_LT(DeterministicPaperPhaseCount(100), 2000000u);
}

TEST(DeterministicMstTest, PaperPhaseBudgetModeRunsToCompletionOnToyInputs) {
  // ~670k idle phases after the ~3 active ones; the empty-round skipping
  // makes this cheap enough to execute literally at toy sizes.
  Xoshiro256 rng(61);
  auto g = MakeRing(6, rng);
  MstOptions opt;
  opt.seed = 61;
  opt.termination = TerminationMode::kPaperPhaseCount;
  auto r = RunDeterministicMst(g, opt);
  ExpectExactMst(g, r);
  // Run time counts the slept-through budget; awake does not.
  EXPECT_GT(r.stats.rounds, 1000000u);
  EXPECT_LT(r.stats.max_awake, 200u);
}

// ------------------------------------------ Spanning tree & baseline ---

TEST(BmSpanningTreeTest, ProducesASpanningTreeInLogAwake) {
  Xoshiro256 rng(41);
  auto g = MakeErdosRenyi(100, 0.08, rng);
  auto r = RunBmSpanningTree(g, {.seed = 41});
  EXPECT_EQ(r.consistency_error, "");
  EXPECT_EQ(r.tree_edges.size(), g.NumNodes() - 1);
  EXPECT_TRUE(IsSpanningTree(g, EdgeMask(g, r.tree_edges)));
  EXPECT_LE(r.stats.max_awake, 40 * std::log2(100.0));
}

TEST(BmSpanningTreeTest, GenerallyNotTheMst) {
  // On a complete graph an arbitrary spanning tree essentially never
  // matches the MST.
  Xoshiro256 rng(43);
  auto g = MakeComplete(20, rng);
  auto r = RunBmSpanningTree(g, {.seed = 43});
  auto mst = KruskalMst(g);
  EXPECT_NE(r.tree_edges, mst);
  EXPECT_GT(g.TotalWeight(r.tree_edges), g.TotalWeight(mst));
}

TEST(LeaderElectionTest, EveryoneKnowsOneLeaderInLogAwake) {
  Xoshiro256 rng(44);
  GeneratorOptions gopt;
  gopt.max_id = 5000;  // sparse IDs: the leader is some surviving root
  auto g = MakeErdosRenyi(120, 0.06, rng, gopt);
  auto r = RunLeaderElection(g, {.seed = 44});
  // The leader is a real node's ID.
  EXPECT_NE(g.IndexOfId(r.leader_id), kInvalidNode);
  EXPECT_LE(r.stats.max_awake, 40 * std::log2(120.0));
  // Deterministic under the seed.
  auto r2 = RunLeaderElection(g, {.seed = 44});
  EXPECT_EQ(r.leader_id, r2.leader_id);
}

TEST(GhsBaselineTest, SameTreeButAwakeEqualsRounds) {
  Xoshiro256 rng(47);
  auto g = MakeErdosRenyi(60, 0.1, rng);
  auto sleeping = RunRandomizedMst(g, {.seed = 47});
  auto baseline = RunGhsBaseline(g, {.seed = 47});
  EXPECT_EQ(sleeping.tree_edges, baseline.tree_edges);
  EXPECT_EQ(baseline.stats.max_awake, baseline.stats.rounds);
  // The sleeping algorithm's awake time is drastically smaller.
  EXPECT_LT(sleeping.stats.max_awake * 100, baseline.stats.max_awake);
}

// ----------------------------------------------------------- Facade ----

TEST(ApiTest, DispatchesAllAlgorithms) {
  Xoshiro256 rng(53);
  auto g = MakeErdosRenyi(30, 0.2, rng);
  auto truth = KruskalMst(g);
  for (MstAlgorithm a : {MstAlgorithm::kRandomized,
                         MstAlgorithm::kDeterministic,
                         MstAlgorithm::kGhsBaseline}) {
    auto r = ComputeMst(g, a, {.seed = 53});
    EXPECT_EQ(r.tree_edges, truth) << MstAlgorithmName(a);
  }
  auto st = ComputeMst(g, MstAlgorithm::kBmSpanningTree, {.seed = 53});
  EXPECT_TRUE(IsSpanningTree(g, EdgeMask(g, st.tree_edges)));
}

TEST(ApiTest, AlgorithmNames) {
  EXPECT_STREQ(MstAlgorithmName(MstAlgorithm::kRandomized), "Randomized-MST");
  EXPECT_STREQ(MstAlgorithmName(MstAlgorithm::kDeterministic),
               "Deterministic-MST");
}

}  // namespace
}  // namespace smst
