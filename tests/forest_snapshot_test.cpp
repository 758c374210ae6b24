// Mid-run structural checks: the Forest-of-LDTs invariant (the paper's
// central data-structure property) must hold at the end of EVERY phase,
// for both algorithms, and the fragment partition must coarsen
// monotonically (fragments only ever merge).
#include <map>
#include <set>

#include <gtest/gtest.h>

#include "smst/graph/generators.h"
#include "smst/mst/deterministic_mst.h"
#include "smst/mst/randomized_mst.h"
#include "smst/sleeping/ldt.h"

namespace smst {
namespace {

void CheckPhaseSnapshots(const WeightedGraph& g, const MstRunResult& r) {
  ASSERT_FALSE(r.forest_per_phase.empty());
  ASSERT_EQ(r.forest_per_phase.size(), r.phases);
  std::map<NodeId, std::set<NodeIndex>> prev_fragments;
  for (std::size_t p = 0; p < r.forest_per_phase.size(); ++p) {
    const auto& forest = r.forest_per_phase[p];
    // 1. FLDT invariant.
    EXPECT_EQ(CheckForestInvariant(g, forest), "") << "after phase " << p + 1;
    // 2. Coarsening: every old fragment is contained in one new fragment.
    std::map<NodeId, std::set<NodeIndex>> fragments;
    for (NodeIndex v = 0; v < g.NumNodes(); ++v) {
      fragments[forest[v].fragment_id].insert(v);
    }
    if (p > 0) {
      for (const auto& [old_id, old_members] : prev_fragments) {
        std::set<NodeId> new_ids;
        for (NodeIndex v : old_members) new_ids.insert(forest[v].fragment_id);
        EXPECT_EQ(new_ids.size(), 1u)
            << "fragment " << old_id << " split after phase " << p + 1;
      }
      EXPECT_LE(fragments.size(), prev_fragments.size());
    }
    prev_fragments = std::move(fragments);
  }
  // Final phase: a single fragment spanning everything.
  EXPECT_EQ(prev_fragments.size(), 1u);
}

TEST(ForestSnapshotTest, RandomizedHoldsEveryPhase) {
  Xoshiro256 rng(1);
  auto g = MakeErdosRenyi(64, 0.1, rng);
  MstOptions opt;
  opt.seed = 1;
  opt.record_forest_snapshots = true;
  CheckPhaseSnapshots(g, RunRandomizedMst(g, opt));
}

TEST(ForestSnapshotTest, RandomizedOnRing) {
  Xoshiro256 rng(2);
  auto g = MakeRing(60, rng);
  MstOptions opt;
  opt.seed = 2;
  opt.record_forest_snapshots = true;
  CheckPhaseSnapshots(g, RunRandomizedMst(g, opt));
}

TEST(ForestSnapshotTest, DeterministicHoldsEveryPhase) {
  Xoshiro256 rng(3);
  auto g = MakeErdosRenyi(48, 0.12, rng);
  MstOptions opt;
  opt.seed = 3;
  opt.record_forest_snapshots = true;
  CheckPhaseSnapshots(g, RunDeterministicMst(g, opt));
}

TEST(ForestSnapshotTest, DeterministicLogStarHoldsEveryPhase) {
  Xoshiro256 rng(4);
  auto g = MakeGrid(6, 8, rng);
  MstOptions opt;
  opt.seed = 4;
  opt.record_forest_snapshots = true;
  CheckPhaseSnapshots(g, RunDeterministicLogStarMst(g, opt));
}

TEST(ForestSnapshotTest, DisabledByDefault) {
  Xoshiro256 rng(5);
  auto g = MakeRing(20, rng);
  auto r = RunRandomizedMst(g, {.seed = 5});
  EXPECT_TRUE(r.forest_per_phase.empty());
}

}  // namespace
}  // namespace smst
