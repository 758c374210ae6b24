// Fault-injection adversary: spec parsing, per-rule semantics at the
// FaultSession level, and the two contracts the subsystem is built
// around — a null plan is a bit-exact no-op, and a non-null plan is
// deterministic (same plan + seed => identical RunOutcome, metrics, and
// tree, independent of thread count).
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "smst/faults/fault_plan.h"
#include "smst/graph/generators.h"
#include "smst/mst/api.h"
#include "smst/runtime/parallel_runner.h"
#include "smst/util/prng.h"

namespace smst {
namespace {

// ---- parsing ----------------------------------------------------------

TEST(FaultPlanParseTest, ParsesCompositeSpec) {
  const FaultPlan plan = ParseFaultPlan("drop=0.01,jitter=2");
  EXPECT_EQ(plan.salt, 0u);
  ASSERT_EQ(plan.rules.size(), 2u);
  EXPECT_EQ(plan.rules[0].kind, FaultKind::kDrop);
  EXPECT_DOUBLE_EQ(plan.rules[0].probability, 0.01);
  EXPECT_EQ(plan.rules[0].node, kInvalidNode);
  EXPECT_EQ(plan.rules[1].kind, FaultKind::kWakeJitter);
  EXPECT_EQ(plan.rules[1].param, 2u);
  EXPECT_DOUBLE_EQ(plan.rules[1].probability, 1.0);
}

TEST(FaultPlanParseTest, ParsesProbabilityAndNodeSuffixes) {
  const FaultPlan plan =
      ParseFaultPlan("salt=9,delay=3:0.5@7,crash=100:0.25@2,dup=0.2@1");
  EXPECT_EQ(plan.salt, 9u);
  ASSERT_EQ(plan.rules.size(), 3u);
  EXPECT_EQ(plan.rules[0].kind, FaultKind::kDelay);
  EXPECT_EQ(plan.rules[0].param, 3u);
  EXPECT_DOUBLE_EQ(plan.rules[0].probability, 0.5);
  EXPECT_EQ(plan.rules[0].node, NodeIndex{7});
  EXPECT_EQ(plan.rules[1].kind, FaultKind::kCrash);
  EXPECT_EQ(plan.rules[1].from_round, Round{100});
  EXPECT_DOUBLE_EQ(plan.rules[1].probability, 0.25);
  EXPECT_EQ(plan.rules[1].node, NodeIndex{2});
  EXPECT_EQ(plan.rules[2].kind, FaultKind::kDuplicate);
  EXPECT_DOUBLE_EQ(plan.rules[2].probability, 0.2);
  EXPECT_EQ(plan.rules[2].node, NodeIndex{1});
}

TEST(FaultPlanParseTest, EmptySpecIsEmptyPlan) {
  EXPECT_TRUE(ParseFaultPlan("").Empty());
  EXPECT_TRUE(ParseFaultPlan(",,").Empty());
}

TEST(FaultPlanParseTest, RejectsMalformedItems) {
  EXPECT_THROW(ParseFaultPlan("bogus=1"), std::invalid_argument);
  EXPECT_THROW(ParseFaultPlan("drop"), std::invalid_argument);
  EXPECT_THROW(ParseFaultPlan("drop="), std::invalid_argument);
  EXPECT_THROW(ParseFaultPlan("drop=1.5"), std::invalid_argument);
  EXPECT_THROW(ParseFaultPlan("drop=0.5:0.5"), std::invalid_argument);
  EXPECT_THROW(ParseFaultPlan("delay=0"), std::invalid_argument);
  EXPECT_THROW(ParseFaultPlan("jitter=x"), std::invalid_argument);
  EXPECT_THROW(ParseFaultPlan("crash=0"), std::invalid_argument);
  EXPECT_THROW(ParseFaultPlan("delay=2:2"), std::invalid_argument);
  EXPECT_THROW(ParseFaultPlan("drop=0.1@"), std::invalid_argument);
}

TEST(FaultPlanParseTest, ToStringRoundTrips) {
  const FaultPlan plan =
      ParseFaultPlan("salt=9,delay=3:0.5@7,drop=0.01,jitter=2,crash=40@5");
  EXPECT_EQ(ParseFaultPlan(plan.ToString()), plan);
}

// Every number is one whole token, read like every other input parser
// reads it: no NaN, sign, whitespace or hex form, and no node index that
// wraps into another one or into kInvalidNode ("every node").
TEST(FaultPlanParseTest, RejectsNumbersOtherParsersReject) {
  for (const char* bad :
       {"drop=nan", "delay=2:nan", "crash=3@-1", "crash=3@4294967295",
        "crash=3@4294967296", "salt=-5", "delay=-1:0.5", "crash=-1",
        "jitter= 2", "drop=+0.5", "drop=0x1p-1", "drop=-0", "salt=5@3",
        "salt=5:0.5"}) {
    EXPECT_THROW(ParseFaultPlan(bad), std::invalid_argument) << bad;
  }
  // The largest node index a rule can name.
  EXPECT_EQ(ParseFaultPlan("crash=3@4294967294").rules[0].node,
            NodeIndex{4294967294u});
}

// A plan has one salt, so a second one is an error rather than
// silently replacing the first (and vanishing from the echoed plan).
// Rule keys may repeat: each adds a rule.
TEST(FaultPlanParseTest, RejectsRepeatedSalt) {
  for (const char* bad :
       {"salt=1,salt=2,drop=0.01", "salt=0,drop=0.01,salt=0"}) {
    EXPECT_THROW(ParseFaultPlan(bad), std::invalid_argument) << bad;
  }
  EXPECT_EQ(ParseFaultPlan("salt=1,drop=0.01,drop=0.02").rules.size(), 2u);
}

TEST(FaultPlanParseTest, ToStringPrintsProbabilitiesExactly) {
  const FaultPlan plan = ParseFaultPlan("drop=0.0012345678,delay=2:1e-07");
  EXPECT_EQ(plan.ToString(), "drop=0.0012345678,delay=2:1e-07");
  EXPECT_EQ(ParseFaultPlan(plan.ToString()), plan);
}

// A seeded fuzz of the print -> parse round trip over random valid plans.
TEST(FaultPlanParseTest, RandomPlansRoundTripThroughToString) {
  Xoshiro256 rng(2024);
  const auto probability = [&rng]() -> double {
    switch (rng.NextBelow(4)) {
      case 0: return rng.NextDouble();
      case 1: return rng.NextDouble() * 1e-9;  // prints in e-notation
      case 2: return static_cast<double>(rng.NextBelow(1001)) / 1000;
      default: return 1.0;
    }
  };
  for (int i = 0; i < 2000; ++i) {
    FaultPlan plan;
    if (rng.NextCoin()) plan.salt = rng.Next();
    const std::uint64_t rules = rng.NextBelow(5);
    for (std::uint64_t j = 0; j < rules; ++j) {
      FaultRule r;
      r.kind = static_cast<FaultKind>(rng.NextBelow(5));
      r.probability = probability();
      if (rng.NextCoin()) {
        r.node = static_cast<NodeIndex>(rng.NextBelow(kInvalidNode));
      }
      switch (r.kind) {
        case FaultKind::kDelay:
        case FaultKind::kWakeJitter:
          r.param = 1 + rng.NextBelow(rng.NextCoin() ? 8 : ~std::uint64_t{0});
          break;
        case FaultKind::kCrash:
          r.from_round =
              1 + rng.NextBelow(rng.NextCoin() ? 100 : ~std::uint64_t{0});
          break;
        default:
          break;
      }
      plan.rules.push_back(r);
    }
    const std::string text = plan.ToString();
    EXPECT_EQ(ParseFaultPlan(text), plan) << text;
  }
}

// ---- FaultSession rule semantics --------------------------------------

TEST(FaultSessionTest, NullAndEmptyPlansAreInactive) {
  const FaultPlan empty;
  FaultSession none(nullptr, 1, 8);
  FaultSession blank(&empty, 1, 8);
  EXPECT_FALSE(none.Active());
  EXPECT_FALSE(blank.Active());
  const auto v = none.OnMessage(0, 0, 1);
  EXPECT_FALSE(v.drop);
  EXPECT_EQ(v.delay, 0u);
  EXPECT_EQ(blank.PerturbWake(3, 17, 2), Round{17});
  EXPECT_FALSE(blank.SuppressWake(3, 17));
}

TEST(FaultSessionTest, CertainDropBeatsDelayAndDup) {
  const FaultPlan plan = ParseFaultPlan("drop=1,delay=4,dup=1");
  FaultSession s(&plan, 7, 8);
  const auto v = s.OnMessage(2, 0, 5);
  EXPECT_TRUE(v.drop);
  EXPECT_EQ(v.delay, 0u);  // drop short-circuits the remaining rules
  EXPECT_FALSE(v.duplicate);
  EXPECT_EQ(s.Stats().injected_drops, 1u);
  EXPECT_EQ(s.Stats().injected_delays, 0u);
}

TEST(FaultSessionTest, NodeFilterRestrictsToSender) {
  FaultPlan plan = ParseFaultPlan("drop=1@3");
  FaultSession s(&plan, 7, 8);
  EXPECT_TRUE(s.OnMessage(3, 0, 1).drop);
  EXPECT_FALSE(s.OnMessage(2, 0, 1).drop);
  EXPECT_EQ(s.Stats().injected_drops, 1u);
}

TEST(FaultSessionTest, ActivationWindowGatesRounds) {
  FaultPlan plan = ParseFaultPlan("drop=1");
  plan.rules[0].from_round = 10;
  plan.rules[0].to_round = 20;
  FaultSession s(&plan, 7, 8);
  EXPECT_FALSE(s.OnMessage(0, 0, 9).drop);
  EXPECT_TRUE(s.OnMessage(0, 0, 10).drop);
  EXPECT_TRUE(s.OnMessage(0, 0, 20).drop);
  EXPECT_FALSE(s.OnMessage(0, 0, 21).drop);
}

TEST(FaultSessionTest, DelayAndDuplicateCompose) {
  const FaultPlan plan = ParseFaultPlan("delay=4,dup=1");
  FaultSession s(&plan, 7, 8);
  const auto v = s.OnMessage(1, 2, 6);
  EXPECT_FALSE(v.drop);
  EXPECT_EQ(v.delay, 4u);
  EXPECT_TRUE(v.duplicate);
  EXPECT_EQ(s.Stats().injected_delays, 1u);
  EXPECT_EQ(s.Stats().injected_duplicates, 1u);
}

TEST(FaultSessionTest, JitterStaysInRadiusAndAboveMinRound) {
  const FaultPlan plan = ParseFaultPlan("jitter=3");
  FaultSession s(&plan, 7, 8);
  std::uint64_t moved = 0;
  for (Round req = 50; req < 150; ++req) {
    const Round r = s.PerturbWake(1, req, 10);
    EXPECT_GE(r + 3, req);  // r >= req - 3 without unsigned underflow
    EXPECT_LE(r, req + 3);
    EXPECT_GE(r, Round{10});
    if (r != req) ++moved;
  }
  EXPECT_EQ(s.Stats().jittered_wakes, moved);
  EXPECT_GT(moved, 0u);  // radius 3, probability 1: most wakes move
  // The clamp: a wake jittered below min_round lands exactly on it.
  for (Round req = 2; req <= 5; ++req) {
    EXPECT_GE(s.PerturbWake(1, req, req), req);
  }
}

TEST(FaultSessionTest, CrashSuppressesFromItsRoundOn) {
  const FaultPlan plan = ParseFaultPlan("crash=10@3");
  FaultSession s(&plan, 7, 8);
  EXPECT_EQ(s.CrashRound(3), Round{10});
  EXPECT_EQ(s.CrashRound(2), kMaxRound);
  EXPECT_FALSE(s.SuppressWake(3, 9));
  EXPECT_TRUE(s.SuppressWake(3, 10));
  EXPECT_TRUE(s.SuppressWake(3, 11));
  EXPECT_FALSE(s.SuppressWake(2, 11));
  EXPECT_EQ(s.Stats().suppressed_wakes, 2u);
  EXPECT_EQ(s.Stats().crashed_nodes, 1u);  // counted once, not per wake
}

TEST(FaultSessionTest, VerdictsAreOrderIndependent) {
  // Counter-based hashing: the verdict for an event depends only on its
  // coordinates, not on how many events were examined before it.
  const FaultPlan plan = ParseFaultPlan("drop=0.5");
  FaultSession forward(&plan, 42, 8);
  FaultSession backward(&plan, 42, 8);
  std::vector<bool> fwd, bwd(100);
  for (std::uint32_t i = 0; i < 100; ++i) {
    fwd.push_back(forward.OnMessage(i % 8, i % 4, 1 + i).drop);
  }
  for (std::uint32_t i = 100; i-- > 0;) {
    bwd[i] = backward.OnMessage(i % 8, i % 4, 1 + i).drop;
  }
  EXPECT_EQ(fwd, bwd);
  EXPECT_EQ(forward.Stats(), backward.Stats());
}

TEST(FaultSessionTest, SaltRealizesAnIndependentPattern) {
  FaultPlan a = ParseFaultPlan("drop=0.5");
  FaultPlan b = ParseFaultPlan("salt=1,drop=0.5");
  FaultSession sa(&a, 42, 8), sb(&b, 42, 8);
  bool differs = false;
  for (std::uint32_t i = 0; i < 64 && !differs; ++i) {
    differs = sa.OnMessage(i % 8, 0, 1 + i).drop !=
              sb.OnMessage(i % 8, 0, 1 + i).drop;
  }
  EXPECT_TRUE(differs);
}

// ---- full-run contracts ------------------------------------------------

void ExpectSameFaultedRun(const MstRunResult& a, const MstRunResult& b) {
  EXPECT_EQ(a.outcome, b.outcome);  // status, detail, FaultStats, audit
  EXPECT_EQ(a.tree_edges, b.tree_edges);
  EXPECT_EQ(a.stats.rounds, b.stats.rounds);
  EXPECT_EQ(a.stats.total_messages, b.stats.total_messages);
  EXPECT_EQ(a.stats.total_bits, b.stats.total_bits);
  EXPECT_EQ(a.stats.awake_node_rounds, b.stats.awake_node_rounds);
  EXPECT_EQ(a.stats.dropped_messages, b.stats.dropped_messages);
  ASSERT_EQ(a.node_metrics.size(), b.node_metrics.size());
  for (std::size_t v = 0; v < a.node_metrics.size(); ++v) {
    EXPECT_EQ(a.node_metrics[v].awake_rounds, b.node_metrics[v].awake_rounds);
    EXPECT_EQ(a.node_metrics[v].messages_dropped,
              b.node_metrics[v].messages_dropped);
  }
}

TEST(FaultedRunTest, NullPlanIsABitExactNoOp) {
  Xoshiro256 rng(11);
  const auto g = MakeErdosRenyi(48, 0.15, rng);
  MstOptions plain;
  plain.seed = 7;
  const FaultPlan empty;
  MstOptions with_empty_plan = plain;
  with_empty_plan.fault_plan = &empty;

  const auto a = ComputeMst(g, MstAlgorithm::kRandomized, plain);
  const auto b = ComputeMst(g, MstAlgorithm::kRandomized, with_empty_plan);
  ExpectSameFaultedRun(a, b);
  EXPECT_TRUE(a.outcome.Ok());
  EXPECT_EQ(a.outcome.faults, FaultStats{});
}

TEST(FaultedRunTest, SamePlanAndSeedReplayExactly) {
  Xoshiro256 rng(12);
  const auto g = MakeErdosRenyi(64, 0.12, rng);
  const FaultPlan plan = ParseFaultPlan("salt=5,drop=0.001,delay=2:0.01");
  MstOptions opt;
  opt.seed = 3;
  opt.fault_plan = &plan;
  const auto a = ComputeMst(g, MstAlgorithm::kRandomized, opt);
  const auto b = ComputeMst(g, MstAlgorithm::kRandomized, opt);
  ExpectSameFaultedRun(a, b);
}

TEST(FaultedRunTest, DifferentSeedsRealizeDifferentFaultPatterns) {
  Xoshiro256 rng(12);
  const auto g = MakeErdosRenyi(64, 0.12, rng);
  const FaultPlan plan = ParseFaultPlan("drop=0.01");
  MstOptions opt;
  opt.fault_plan = &plan;
  opt.seed = 3;
  const auto a = ComputeMst(g, MstAlgorithm::kRandomized, opt);
  opt.seed = 4;
  const auto b = ComputeMst(g, MstAlgorithm::kRandomized, opt);
  // Not a hard guarantee per event, but across a whole run at drop=0.01
  // identical injection totals would mean the seed is not reaching the
  // adversary stream.
  EXPECT_NE(a.outcome.faults.injected_drops, b.outcome.faults.injected_drops);
}

TEST(FaultedRunTest, ThreadCountIsInvisibleInFaultedSweeps) {
  Xoshiro256 rng(13);
  const auto g = MakeErdosRenyi(48, 0.15, rng);
  const FaultPlan plan = ParseFaultPlan("salt=2,drop=0.002,jitter=1:0.001");
  MstOptions opt;
  opt.fault_plan = &plan;
  std::vector<RunSpec> specs;
  for (MstAlgorithm algo :
       {MstAlgorithm::kRandomized, MstAlgorithm::kDeterministic}) {
    for (std::uint64_t s = 1; s <= 4; ++s) {
      specs.push_back(RunSpec{&g, algo, opt, s});
    }
  }
  const auto serial = ParallelRunner(1).RunAll(specs);
  const auto threaded = ParallelRunner(4).RunAll(specs);
  ASSERT_EQ(serial.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    SCOPED_TRACE("spec " + std::to_string(i));
    ExpectSameFaultedRun(serial[i], threaded[i]);
  }
}

TEST(FaultedRunTest, CrashStopClassifiesAsCrashedPartition) {
  Xoshiro256 rng(14);
  const auto g = MakeRing(16, rng);
  const FaultPlan plan = ParseFaultPlan("crash=5@3");
  MstOptions opt;
  opt.fault_plan = &plan;
  opt.max_rounds = 1 << 20;
  const auto r = ComputeMst(g, MstAlgorithm::kRandomized, opt);
  EXPECT_FALSE(r.outcome.Ok());
  EXPECT_GE(r.outcome.faults.crashed_nodes, 1u);
  EXPECT_GE(r.outcome.faults.suppressed_wakes, 1u);
}

TEST(FaultedRunTest, RulesTargetingMissingNodesAreRejected) {
  // An @NODE filter naming no node of the graph would match nothing and
  // run silently as a no-op; the Simulator rejects it before any engine
  // is built, serial and sharded alike.
  Xoshiro256 rng(12);
  const auto g = MakeRing(16, rng);
  for (const std::string kind : {"crash=3", "drop=0.5", "jitter=1"}) {
    for (const std::uint32_t shards : {0u, 2u}) {
      SCOPED_TRACE(kind + " shards " + std::to_string(shards));
      MstOptions opt;
      opt.seed = 3;
      opt.shards = shards;
      const FaultPlan missing = ParseFaultPlan(kind + "@16");
      opt.fault_plan = &missing;
      try {
        ComputeMst(g, MstAlgorithm::kRandomized, opt);
        ADD_FAILURE() << "accepted a rule for node 16 on n = 16";
      } catch (const std::invalid_argument& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("'" + kind + "@16'"), std::string::npos) << what;
        EXPECT_NE(what.find("n = 16"), std::string::npos) << what;
      }
      const FaultPlan last = ParseFaultPlan(kind + "@15");
      opt.fault_plan = &last;
      EXPECT_NO_THROW(ComputeMst(g, MstAlgorithm::kRandomized, opt));
    }
  }
}

}  // namespace
}  // namespace smst
