// Fault accounting: under a mixed fault plan the scheduler's
// messages_dropped meter (model drops: sends that reached a sleeping
// receiver, including delayed messages that missed their window) must
// agree with the auditor's independently-counted model drops, and the
// awake meters must agree — on every topology, seed, and thread count.
// Injected drops are the adversary destroying in-flight messages and are
// deliberately NOT model drops; the test pins that separation too.
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "smst/faults/fault_plan.h"
#include "smst/graph/generators.h"
#include "smst/lower_bounds/grc.h"
#include "smst/runtime/parallel_runner.h"

namespace smst {
namespace {

// Mixed plan: drops, short delays, and duplicates all active at rates
// the small topologies survive often enough to exercise both the
// completed and the failed bookkeeping paths.
constexpr char kMixedPlan[] = "salt=3,drop=0.002,delay=2:0.01,dup=0.01";

struct Case {
  std::string name;
  WeightedGraph graph;
};

std::vector<Case> Topologies() {
  std::vector<Case> cases;
  {
    Xoshiro256 rng(31);
    cases.push_back({"ring-24", MakeRing(24, rng)});
  }
  {
    Xoshiro256 rng(32);
    cases.push_back({"star-16", MakeStar(16, rng)});
  }
  {
    Xoshiro256 rng(33);
    cases.push_back({"grc-4x8", BuildGrc(4, 8, rng).graph});
  }
  return cases;
}

std::uint64_t SumDropped(const MstRunResult& r) {
  std::uint64_t total = 0;
  for (const NodeMetrics& m : r.node_metrics) total += m.messages_dropped;
  return total;
}

std::uint64_t SumAwake(const MstRunResult& r) {
  std::uint64_t total = 0;
  for (const NodeMetrics& m : r.node_metrics) total += m.awake_rounds;
  return total;
}

TEST(FaultAccountingTest, DropMeterAndAwakeMeterAgreeWithAuditor) {
  const FaultPlan plan = ParseFaultPlan(kMixedPlan);
  for (const Case& c : Topologies()) {
    for (std::uint64_t seed : {1, 2}) {
      for (MstAlgorithm algo :
           {MstAlgorithm::kRandomized, MstAlgorithm::kDeterministic}) {
        SCOPED_TRACE(c.name + " seed " + std::to_string(seed) + " " +
                     MstAlgorithmName(algo));
        MstOptions opt;
        opt.seed = seed;
        opt.fault_plan = &plan;
        opt.audit = AuditMode::kOn;
        const auto r = ComputeMst(c.graph, algo, opt);
        // The run may complete or fail — the meters must agree either way.
        EXPECT_EQ(r.outcome.audit_violations, 0u);
        EXPECT_EQ(r.outcome.audited_model_drops, SumDropped(r));
        EXPECT_EQ(r.outcome.audited_awake_node_rounds, SumAwake(r));
        EXPECT_EQ(r.stats.dropped_messages, SumDropped(r));
        EXPECT_EQ(r.stats.awake_node_rounds, SumAwake(r));
      }
    }
  }
}

TEST(FaultAccountingTest, InjectedDropsAreNotModelDrops) {
  // drop=1 destroys every message in flight; the model-drop meter must
  // stay untouched by those injections (it only counts sleeping-receiver
  // losses, which can no longer occur once everything is destroyed).
  Xoshiro256 rng(41);
  const auto g = MakeRing(12, rng);
  const FaultPlan plan = ParseFaultPlan("drop=1");
  MstOptions opt;
  opt.fault_plan = &plan;
  opt.max_rounds = 1 << 20;
  const auto r = ComputeMst(g, MstAlgorithm::kRandomized, opt);
  EXPECT_GT(r.outcome.faults.injected_drops, 0u);
  EXPECT_EQ(SumDropped(r), 0u);
}

TEST(FaultAccountingTest, AccountingIsThreadCountInvariant) {
  const FaultPlan plan = ParseFaultPlan(kMixedPlan);
  std::vector<Case> cases = Topologies();
  std::vector<RunSpec> specs;
  MstOptions opt;
  opt.fault_plan = &plan;
  opt.audit = AuditMode::kOn;
  for (const Case& c : cases) {
    for (std::uint64_t seed : {1, 2}) {
      specs.push_back(RunSpec{&c.graph, MstAlgorithm::kRandomized, opt, seed});
      specs.push_back(
          RunSpec{&c.graph, MstAlgorithm::kDeterministic, opt, seed});
    }
  }
  const auto serial = ParallelRunner(1).RunAll(specs);
  const auto threaded = ParallelRunner(4).RunAll(specs);
  ASSERT_EQ(serial.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    SCOPED_TRACE("spec " + std::to_string(i));
    // RunOutcome::operator== covers status, detail, FaultStats, and the
    // audit summary field for field.
    EXPECT_EQ(serial[i].outcome, threaded[i].outcome);
    EXPECT_EQ(SumDropped(serial[i]), SumDropped(threaded[i]));
    EXPECT_EQ(SumAwake(serial[i]), SumAwake(threaded[i]));
  }
}

}  // namespace
}  // namespace smst
