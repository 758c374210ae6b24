// Protocol-level properties that hold for every algorithm in the
// library, enforced across a sweep of graphs and seeds:
//  * no algorithm ever sends to a sleeping node (schedules are exact);
//  * every message respects the O(log n)-bit CONGEST budget;
//  * awake metering is consistent (sum of wake times == awake rounds);
//  * termination modes agree on the output;
//  * the awake-rounds distribution is balanced (no hot node).
#include <algorithm>
#include <cmath>
#include <string>

#include <gtest/gtest.h>

#include "smst/graph/generators.h"
#include "smst/graph/mst_reference.h"
#include "smst/mst/api.h"
#include "smst/mst/randomized_mst.h"

namespace smst {
namespace {

struct Combo {
  MstAlgorithm algo;
  int family;
  std::uint64_t seed;
};

class ProtocolPropertyTest : public ::testing::TestWithParam<Combo> {};

WeightedGraph MakeFamily(int family, std::size_t n, Xoshiro256& rng) {
  switch (family) {
    case 0: return MakeErdosRenyi(n, 6.0 / static_cast<double>(n), rng);
    case 1: return MakeRing(n, rng);
    case 2: return MakeGrid(6, n / 6, rng);
    default: return MakeRandomGeometric(n, 0.25, rng);
  }
}

// A cell's test name, e.g. "randomized_er_seed1": the algorithm, the
// graph family and the seed, in characters a gtest name may hold.
std::string CellName(const ::testing::TestParamInfo<Combo>& cell) {
  const Combo& c = cell.param;
  std::string algo;
  switch (c.algo) {
    case MstAlgorithm::kRandomized: algo = "randomized"; break;
    case MstAlgorithm::kDeterministic: algo = "deterministic"; break;
    case MstAlgorithm::kDeterministicLogStar: algo = "logstar"; break;
    case MstAlgorithm::kGhsBaseline: algo = "ghs"; break;
    case MstAlgorithm::kBmSpanningTree: algo = "spanning"; break;
  }
  static const char* const kFamilies[] = {"er", "ring", "grid", "geometric"};
  return algo + "_" + kFamilies[std::min(c.family, 3)] + "_seed" +
         std::to_string(c.seed);
}

TEST_P(ProtocolPropertyTest, HoldsOnEveryRun) {
  const Combo c = GetParam();
  const std::size_t n = 60;
  Xoshiro256 rng(c.seed * 31 + c.family);
  auto g = MakeFamily(c.family, n, rng);

  MstOptions opt;
  opt.seed = c.seed;
  opt.record_wake_times = true;
  auto r = ComputeMst(g, c.algo, opt);

  // 1. Nothing was ever sent into the void: the schedules guarantee the
  //    receiver of every message is awake. (Lost messages are legal in
  //    the model but would mean our schedule arithmetic is off.)
  EXPECT_EQ(r.stats.dropped_messages, 0u) << MstAlgorithmName(c.algo);

  // 2. CONGEST bit budget: IDs, weights, levels, counts — all poly(n).
  EXPECT_LE(r.stats.max_message_bits, 200u);

  // 3. Metering consistency.
  std::uint64_t wake_sum = 0;
  for (NodeIndex v = 0; v < g.NumNodes(); ++v) {
    EXPECT_EQ(r.wake_times[v].size(), r.node_metrics[v].awake_rounds);
    wake_sum += r.wake_times[v].size();
    // Wake times strictly increase and end within the run.
    for (std::size_t i = 1; i < r.wake_times[v].size(); ++i) {
      EXPECT_LT(r.wake_times[v][i - 1], r.wake_times[v][i]);
    }
    if (!r.wake_times[v].empty()) {
      EXPECT_LE(r.wake_times[v].back(), r.stats.rounds);
    }
  }
  EXPECT_EQ(wake_sum, r.stats.awake_node_rounds);

  // 4. Output sanity (exact MST for the MST algorithms).
  if (c.algo != MstAlgorithm::kBmSpanningTree) {
    EXPECT_EQ(r.tree_edges, KruskalMst(g)) << MstAlgorithmName(c.algo);
  }
  EXPECT_EQ(r.consistency_error, "");

  // 5. Balance: the busiest node is within a small factor of the mean —
  //    the sleeping schedules don't create hot spots.
  EXPECT_LE(static_cast<double>(r.stats.max_awake),
            6.0 * r.stats.avg_awake + 20.0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ProtocolPropertyTest,
    ::testing::Values(
        Combo{MstAlgorithm::kRandomized, 0, 1},
        Combo{MstAlgorithm::kRandomized, 1, 2},
        Combo{MstAlgorithm::kRandomized, 2, 3},
        Combo{MstAlgorithm::kRandomized, 3, 4},
        Combo{MstAlgorithm::kDeterministic, 0, 1},
        Combo{MstAlgorithm::kDeterministic, 1, 2},
        Combo{MstAlgorithm::kDeterministic, 2, 3},
        Combo{MstAlgorithm::kDeterministic, 3, 4},
        Combo{MstAlgorithm::kDeterministicLogStar, 0, 1},
        Combo{MstAlgorithm::kDeterministicLogStar, 1, 2},
        Combo{MstAlgorithm::kBmSpanningTree, 0, 1},
        Combo{MstAlgorithm::kBmSpanningTree, 3, 2}),
    CellName);

TEST(TerminationModeTest, EarlyDetectAndPaperBudgetAgreeOnTheTree) {
  Xoshiro256 rng(9);
  auto g = MakeErdosRenyi(48, 0.12, rng);
  MstOptions early;
  early.seed = 7;
  MstOptions paper;
  paper.seed = 7;
  paper.termination = TerminationMode::kPaperPhaseCount;
  auto a = RunRandomizedMst(g, early);
  auto b = RunRandomizedMst(g, paper);
  EXPECT_EQ(a.tree_edges, b.tree_edges);
  // Paper mode keeps (idle-)running to the budget; early mode stops when
  // the DONE broadcast lands. Same active phases either way.
  EXPECT_EQ(a.phases, b.phases);
  // Idle phases cost no awake rounds.
  EXPECT_EQ(a.stats.max_awake, b.stats.max_awake);
  EXPECT_GE(b.stats.rounds, a.stats.rounds);
}

TEST(SeedSweepTest, FiftySeedsAllExact) {
  // The randomized algorithm succeeds w.h.p.; at n=32 with in-model
  // termination detection it must succeed every time (detection is
  // exact, only the phase count is random).
  Xoshiro256 rng(4);
  auto g = MakeErdosRenyi(32, 0.2, rng);
  const auto truth = KruskalMst(g);
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    auto r = RunRandomizedMst(g, {.seed = seed});
    ASSERT_EQ(r.tree_edges, truth) << "seed " << seed;
  }
}

TEST(PhaseCountDistributionTest, ConcentratesNearLogN) {
  Xoshiro256 rng(11);
  auto g = MakeRing(128, rng);
  double sum = 0;
  std::uint64_t worst = 0;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    auto r = RunRandomizedMst(g, {.seed = seed});
    sum += static_cast<double>(r.phases);
    worst = std::max(worst, r.phases);
  }
  const double mean = sum / 30.0;
  // log_{4/3}(128) ~ 16.9; coin filtering keeps the mean close to it and
  // the worst case within the paper budget.
  EXPECT_GT(mean, 8.0);
  EXPECT_LT(mean, 30.0);
  EXPECT_LE(worst, RandomizedPaperPhaseCount(128));
}

}  // namespace
}  // namespace smst
