// Runtime invariant auditor: each check must fire on a seeded violation
// with round + node attribution, and a clean run under AuditMode::kOn
// must come back with zero violations and meters that agree with the
// scheduler's. The forest invariant's one checker, CheckForestInvariant,
// is tested on the same seeded path.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "smst/faults/auditor.h"
#include "smst/graph/generators.h"
#include "smst/mst/api.h"
#include "smst/sleeping/ldt.h"
#include "tests/test_util.h"

namespace smst {
namespace {

using testing::PortTo;

WeightedGraph TestPath(std::size_t n) {
  Xoshiro256 rng(5);
  GeneratorOptions opt;
  opt.shuffle_ids = false;  // IDs 1..n in index order, easy to reason about
  return MakePath(n, rng, opt);
}

// A correct FLDT over the path: node 0 is the root, each node i > 0 hangs
// off i - 1.
std::vector<LdtState> PathChainForest(const WeightedGraph& g) {
  const std::size_t n = g.NumNodes();
  std::vector<LdtState> states(n);
  for (NodeIndex v = 0; v < n; ++v) {
    states[v].fragment_id = g.IdOf(0);
    states[v].level = v;
    if (v > 0) states[v].parent_port = PortTo(g, v, v - 1);
    if (v + 1 < n) states[v].child_ports.push_back(PortTo(g, v, v + 1));
  }
  return states;
}

// ---- seeded violations -------------------------------------------------

TEST(AuditorTest, FlagsOversizedMessageWithAttribution) {
  const auto g = TestPath(4);
  Auditor audit(g);
  // The budget derived from a 4-node path's IDs, weights and n.
  EXPECT_LE(audit.BitBudget(), 128u);

  Message ok;
  ok.a = 0xF;  // 8 tag bits + 4 + 1 + 1 = 14 bits: inside the budget
  // 8 tag bits + three 63-bit fields = 197 bits: past that budget.
  Message oversized;
  oversized.a = oversized.b = oversized.c = ~std::uint64_t{0} >> 1;

  audit.OnAwake(7, 2);
  audit.OnSend(7, 2, 0, ok);
  EXPECT_TRUE(audit.Clean());
  audit.OnSend(7, 2, 1, oversized);
  ASSERT_EQ(audit.ViolationCount(), 1u);
  const AuditViolation& v = audit.Violations()[0];
  EXPECT_EQ(v.check, "congest-bits");
  EXPECT_EQ(v.round, Round{7});
  EXPECT_EQ(v.node, NodeIndex{2});
  EXPECT_NE(audit.Report().find("congest-bits"), std::string::npos);
}

TEST(AuditorTest, DerivedBudgetAdmitsEveryLegitimateField) {
  const auto g = TestPath(8);
  Auditor audit(g);
  // Largest legitimate single-field values: the graph's own IDs/weights
  // and the ±infinity sentinel (accounted as one symbol, not 64 bits).
  Message m;
  m.a = g.MaxId();
  m.b = kPlusInfinity;
  m.c = g.NumNodes();
  audit.OnAwake(1, 0);
  audit.OnSend(1, 0, 0, m);
  EXPECT_TRUE(audit.Clean()) << audit.Report();
  // The packed-lane idiom (coloring.cpp Pack4): four log-sized values in
  // 16-bit lanes. Positionally wide, informationally O(log n) — legal.
  Message packed;
  // The unguarded pack is the point of the test: the Auditor, not an
  // assert, is the runtime check. smst-lint-disable-next-line(congest-lane-pack)
  packed.a = g.MaxId() | (g.MaxId() << 16) | (g.MaxId() << 32) |
             (g.MaxId() << 48);
  audit.OnSend(1, 0, 1, packed);
  EXPECT_TRUE(audit.Clean()) << audit.Report();
}

TEST(AuditorTest, FlagsSendWhileAsleep) {
  const auto g = TestPath(4);
  Auditor audit(g);
  audit.OnAwake(3, 1);
  audit.OnSend(4, 1, 0, Message{});  // awake in round 3, sending in 4
  ASSERT_EQ(audit.ViolationCount(), 1u);
  EXPECT_EQ(audit.Violations()[0].check, "asleep-send");
  EXPECT_EQ(audit.Violations()[0].round, Round{4});
  EXPECT_EQ(audit.Violations()[0].node, NodeIndex{1});
}

TEST(AuditorTest, FlagsDeliveryToSleepingNode) {
  const auto g = TestPath(4);
  Auditor audit(g);
  audit.OnAwake(5, 0);
  audit.OnDeliver(5, 0, 3, Message{});  // node 3 never woke
  ASSERT_EQ(audit.ViolationCount(), 1u);
  EXPECT_EQ(audit.Violations()[0].check, "asleep-receive");
  EXPECT_EQ(audit.Violations()[0].round, Round{5});
  EXPECT_EQ(audit.Violations()[0].node, NodeIndex{3});
}

TEST(AuditorTest, FlagsAwakeMeterMismatch) {
  const auto g = TestPath(4);
  Auditor audit(g);
  audit.OnAwake(1, 0);
  audit.OnAwake(1, 1);
  Metrics metrics(4);
  metrics.Node(0).awake_rounds = 1;  // scheduler "metered" only one
  metrics.SetLastRound(1);
  audit.CheckAwakeMeter(metrics);
  ASSERT_EQ(audit.ViolationCount(), 1u);
  EXPECT_EQ(audit.Violations()[0].check, "awake-meter");
  EXPECT_NE(audit.Violations()[0].detail.find("2"), std::string::npos);
}

TEST(AuditorTest, RecordsUpToCapAndCountsTheRest) {
  const auto g = TestPath(4);
  Auditor audit(g);
  for (Round r = 1; r <= 70; ++r) audit.OnSend(r, 0, 0, Message{});
  EXPECT_EQ(audit.ViolationCount(), 70u);
  EXPECT_EQ(audit.Violations().size(), 64u);
  EXPECT_EQ(audit.Violations().size(), Auditor::kMaxRecorded);
  EXPECT_NE(audit.Report().find("70 audit violation(s) (64 recorded)"),
            std::string::npos);
}

// ---- the forest invariant ---------------------------------------------
// The fragment structure's invariant has one checker,
// CheckForestInvariant (sleeping/ldt.h); the auditor has no forest hook.

TEST(ForestInvariantTest, AcceptsCorrectChain) {
  const auto g = TestPath(5);
  EXPECT_EQ(CheckForestInvariant(g, PathChainForest(g)), "");
}

TEST(ForestInvariantTest, FlagsTwoNodeParentCycle) {
  const auto g = TestPath(5);
  auto states = PathChainForest(g);
  // Corrupt the chain into a 2-cycle: 2 and 3 claim each other as parent.
  // Node 1 still lists node 2 as a child, which no longer points back.
  states[2].parent_port = PortTo(g, 2, 3);
  states[3].parent_port = PortTo(g, 3, 2);
  EXPECT_EQ(CheckForestInvariant(g, states),
            "node 1 (id 2) lists a child that does not point back");
}

TEST(ForestInvariantTest, FlagsLevelAndChildListBreaks) {
  const auto g = TestPath(4);
  auto states = PathChainForest(g);
  states[2].level = 7;  // parent has level 1
  EXPECT_EQ(CheckForestInvariant(g, states),
            "node 2 (id 3) level is not parent level + 1");

  auto states2 = PathChainForest(g);
  states2[1].child_ports.clear();  // parent no longer lists node 2
  EXPECT_EQ(CheckForestInvariant(g, states2),
            "node 2 (id 3) is not listed by its parent");
}

// ---- clean-run integration ---------------------------------------------

TEST(AuditorTest, CleanRunsAuditCleanUnderBothAlgorithms) {
  Xoshiro256 rng(21);
  const auto g = MakeErdosRenyi(40, 0.2, rng);
  for (MstAlgorithm algo :
       {MstAlgorithm::kRandomized, MstAlgorithm::kDeterministic}) {
    MstOptions opt;
    opt.audit = AuditMode::kOn;
    const auto r = ComputeMst(g, algo, opt);
    SCOPED_TRACE(MstAlgorithmName(algo));
    EXPECT_TRUE(r.outcome.Ok());
    EXPECT_EQ(r.outcome.audit_violations, 0u);
    // The auditor's independent meters agree with the scheduler's.
    EXPECT_EQ(r.outcome.audited_awake_node_rounds,
              r.stats.awake_node_rounds);
    EXPECT_EQ(r.outcome.audited_model_drops, r.stats.dropped_messages);
  }
}

TEST(AuditorTest, AuditModeOffDisablesTheSummary) {
  Xoshiro256 rng(22);
  const auto g = MakeErdosRenyi(32, 0.2, rng);
  MstOptions opt;
  opt.audit = AuditMode::kOff;
  const auto r = ComputeMst(g, MstAlgorithm::kRandomized, opt);
  EXPECT_TRUE(r.outcome.Ok());
  EXPECT_EQ(r.outcome.audited_awake_node_rounds, 0u);
}

}  // namespace
}  // namespace smst
