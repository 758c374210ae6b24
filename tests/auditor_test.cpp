// Runtime invariant auditor: each check must fire on a seeded violation
// with round + node attribution, and a clean run under AuditMode::kOn
// must come back with zero violations and meters that agree with the
// scheduler's.
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "smst/faults/auditor.h"
#include "smst/graph/generators.h"
#include "smst/mst/api.h"

namespace smst {
namespace {

WeightedGraph TestPath(std::size_t n) {
  Xoshiro256 rng(5);
  GeneratorOptions opt;
  opt.shuffle_ids = false;  // IDs 1..n in index order, easy to reason about
  return MakePath(n, rng, opt);
}

std::uint32_t PortTo(const WeightedGraph& g, NodeIndex v, NodeIndex u) {
  const auto ports = g.PortsOf(v);
  for (std::uint32_t i = 0; i < ports.size(); ++i) {
    if (ports[i].neighbor == u) return i;
  }
  ADD_FAILURE() << "no port from " << v << " to " << u;
  return kNoPort;
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
  Auditor::Config config;
  config.max_message_bits = 16;
  Auditor audit(g, config);
  EXPECT_EQ(audit.BitBudget(), 16u);

  Message ok;
  ok.a = 0xF;  // 8 tag bits + 4 + 1 + 1 = 14 bits: inside the budget
  Message oversized;
  oversized.a = ~std::uint64_t{0} >> 1;  // 63 bits in one field

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

TEST(AuditorTest, AcceptsCorrectForestSnapshot) {
  const auto g = TestPath(5);
  Auditor audit(g);
  audit.CheckForest(9, PathChainForest(g));
  EXPECT_TRUE(audit.Clean()) << audit.Report();
}

TEST(AuditorTest, FlagsForestCycleWithAttribution) {
  const auto g = TestPath(5);
  auto states = PathChainForest(g);
  // Corrupt the chain into a 2-cycle: 2 and 3 claim each other as parent.
  states[2].parent_port = PortTo(g, 2, 3);
  states[3].parent_port = PortTo(g, 3, 2);
  Auditor audit(g);
  audit.CheckForest(9, states);
  EXPECT_FALSE(audit.Clean());
  bool cycle_found = false;
  for (const AuditViolation& v : audit.Violations()) {
    EXPECT_EQ(v.check, "forest");
    EXPECT_EQ(v.round, Round{9});  // the snapshot's phase label
    if (v.detail.find("cycle") != std::string::npos) {
      cycle_found = true;
      // 2 and 3 are the cycle; node 4's parent chain walks into it and
      // legitimately overruns too. Nodes 0 and 1 still reach the root.
      EXPECT_TRUE(v.node >= 2 && v.node <= 4) << "node " << v.node;
    }
  }
  EXPECT_TRUE(cycle_found) << audit.Report();
}

TEST(AuditorTest, FlagsLevelAndSymmetryBreaks) {
  const auto g = TestPath(4);
  auto states = PathChainForest(g);
  states[2].level = 7;  // parent has level 1
  Auditor audit(g);
  audit.CheckForest(1, states);
  ASSERT_GE(audit.ViolationCount(), 1u);
  EXPECT_EQ(audit.Violations()[0].node, NodeIndex{2});

  auto states2 = PathChainForest(g);
  states2[1].child_ports.clear();  // parent no longer lists node 2
  Auditor audit2(g);
  audit2.CheckForest(1, states2);
  EXPECT_FALSE(audit2.Clean());
  EXPECT_NE(audit2.Report().find("child"), std::string::npos);
}

TEST(AuditorTest, FailFastThrowsAtTheViolation) {
  const auto g = TestPath(4);
  Auditor::Config config;
  config.fail_fast = true;
  Auditor audit(g, config);
  try {
    audit.OnSend(6, 2, 0, Message{});  // asleep send
    FAIL() << "expected fail-fast to throw";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("asleep-send"), std::string::npos) << what;
    EXPECT_NE(what.find("round 6"), std::string::npos) << what;
    EXPECT_NE(what.find("node 2"), std::string::npos) << what;
  }
}

TEST(AuditorTest, RecordsUpToCapAndCountsTheRest) {
  const auto g = TestPath(4);
  Auditor::Config config;
  config.max_recorded = 2;
  Auditor audit(g, config);
  for (Round r = 1; r <= 5; ++r) audit.OnSend(r, 0, 0, Message{});
  EXPECT_EQ(audit.ViolationCount(), 5u);
  EXPECT_EQ(audit.Violations().size(), 2u);
  EXPECT_NE(audit.Report().find("5 audit violation(s)"), std::string::npos);
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
