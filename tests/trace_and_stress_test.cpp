// Execution tracing and stress / edge coverage: high-degree nodes (the
// scheduler's >64-port duplicate-send fallback), larger n, and schedule
// violation detection.
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "smst/faults/fault_plan.h"
#include "smst/graph/generators.h"
#include "smst/graph/mst_reference.h"
#include "smst/mst/deterministic_mst.h"
#include "smst/mst/randomized_mst.h"
#include "smst/runtime/simulator.h"
#include "smst/sleeping/flat_procedures.h"
#include "smst/sleeping/forest_builder.h"

namespace smst {
namespace {

Task<void> ChatterNode(NodeContext& ctx) {
  SendBatch sends;
  for (std::uint32_t p = 0; p < ctx.Degree(); ++p) {
    sends.push_back({p, Message{1, ctx.Id(), 0, 0}});
  }
  co_await ctx.Awake(1, std::move(sends));
  if (ctx.Index() == 0) co_await ctx.Awake(2);  // one lonely wake
}

// ChatterNode as a flat state machine.
class FlatChatter final : public FlatProgram {
 public:
  explicit FlatChatter(const WeightedGraph& g) : g_(&g) {}

  Round Step(NodeIndex v, Round now, std::span<const InMessage> /*inbox*/,
             SendLane& sends) override {
    if (now == 0) {
      for (std::uint32_t p = 0; p < g_->DegreeOf(v); ++p) {
        sends.push_back({p, Message{1, g_->IdOf(v), 0, 0}});
      }
      return 1;
    }
    return v == 0 && now == 1 ? 2 : kFlatDone;
  }

 private:
  const WeightedGraph* g_;
};

auto Fields(const TraceEvent& e) {
  return std::tuple(e.round, e.node, e.sent, e.received, e.dropped,
                    e.injected_drops, e.injected_delays, e.injected_dups);
}

TEST(TraceTest, EventsMatchTheRun) {
  GraphBuilder b(3);
  b.AddEdge(0, 1, 1).AddEdge(1, 2, 2).AddEdge(2, 0, 3);
  auto g = std::move(b).Build();
  std::vector<TraceEvent> events;
  SimulatorOptions opt;
  opt.trace = [&events](const TraceEvent& e) { events.push_back(e); };
  Simulator sim(g, opt);
  sim.Run([](NodeContext& ctx) { return ChatterNode(ctx); });

  ASSERT_EQ(events.size(), 4u);  // 3 nodes in round 1 + node 0 in round 2
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(events[i].round, 1u);
    EXPECT_EQ(events[i].sent, 2u);
    EXPECT_EQ(events[i].received, 2u);
    EXPECT_EQ(events[i].dropped, 0u);
  }
  EXPECT_EQ(events[3].round, 2u);
  EXPECT_EQ(events[3].node, 0u);
  EXPECT_EQ(events[3].sent, 0u);
  EXPECT_EQ(events[3].received, 0u);
}

TEST(TraceTest, FlatProgramsTraceLikeTheirCoroutine) {
  // A trace is an observer like the auditor: a traced flat run must emit
  // the coroutine run's events, fault-free and under an adversary.
  Xoshiro256 rng(8);
  const auto g = MakeRing(6, rng);
  const FaultPlan plan = ParseFaultPlan("salt=3,drop=0.3,dup=0.3,delay=1:0.3");
  for (const FaultPlan* p : {static_cast<const FaultPlan*>(nullptr), &plan}) {
    std::vector<TraceEvent> want;
    SimulatorOptions opt;
    opt.fault_plan = p;
    opt.trace = [&want](const TraceEvent& e) { want.push_back(e); };
    Simulator(g, opt).Run([](NodeContext& ctx) { return ChatterNode(ctx); });
    ASSERT_EQ(want.size(), 7u);  // 6 nodes in round 1 + node 0 in round 2

    SCOPED_TRACE(p ? "faulted" : "fault-free");
    std::vector<TraceEvent> got;
    opt.trace = [&got](const TraceEvent& e) { got.push_back(e); };
    FlatChatter program(g);
    Simulator(g, opt).Run(program);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(Fields(got[i]), Fields(want[i])) << "event " << i;
    }
  }
}

Task<void> SendToSleeperNode(NodeContext& ctx) {
  if (ctx.Index() == 0) {
    co_await ctx.Awake(1, OutMessage{0, Message{1, 0, 0, 0}});
  } else {
    co_await ctx.Awake(2);
  }
}

TEST(TraceTest, DropsAreAttributedToTheSender) {
  GraphBuilder b(2);
  b.AddEdge(0, 1, 1);
  auto g = std::move(b).Build();
  std::vector<TraceEvent> events;
  SimulatorOptions opt;
  opt.trace = [&events](const TraceEvent& e) { events.push_back(e); };
  Simulator sim(g, opt);
  sim.Run([](NodeContext& ctx) { return SendToSleeperNode(ctx); });
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].node, 0u);
  EXPECT_EQ(events[0].dropped, 1u);
  EXPECT_EQ(events[1].received, 0u);
}

TEST(StressTest, HighDegreeNodesUseTheLargePortPath) {
  // Complete graph on 70 nodes: degree 69 > 64, exercising the
  // scheduler's vector<bool> duplicate-port fallback.
  Xoshiro256 rng(1);
  auto g = MakeComplete(70, rng);
  auto r = RunRandomizedMst(g, {.seed = 1});
  EXPECT_EQ(r.tree_edges, KruskalMst(g));
}

TEST(StressTest, DuplicatePortDetectionOnHighDegreeNode) {
  Xoshiro256 rng(2);
  auto g = MakeStar(70, rng);  // center degree 69
  Simulator sim(g);
  EXPECT_THROW(sim.Run([](NodeContext& ctx) -> Task<void> {
                 if (ctx.Degree() > 64) {
                   SendBatch sends;
                   sends.push_back({68, Message{1, 0, 0, 0}});
                   sends.push_back({68, Message{2, 0, 0, 0}});
                   co_await ctx.Awake(1, std::move(sends));
                 } else {
                   co_await ctx.Awake(1);
                 }
               }),
               std::logic_error);
}

TEST(StressTest, FourThousandNodeRandomizedMst) {
  Xoshiro256 rng(3);
  auto g = MakeErdosRenyi(4096, 6.0 / 4096.0, rng);
  auto r = RunRandomizedMst(g, {.seed = 3});
  EXPECT_EQ(r.tree_edges, KruskalMst(g));
  // O(log n): 12-bit n, generous constant.
  EXPECT_LE(r.stats.max_awake, 40u * 12u);
}

TEST(StressTest, DeepPathDeterministic) {
  // Path graphs maximize fragment depth (the schedule's worst case).
  Xoshiro256 rng(4);
  auto g = MakePath(200, rng);
  auto r = RunDeterministicMst(g, {.seed = 4});
  EXPECT_EQ(r.tree_edges, KruskalMst(g));
  EXPECT_EQ(r.tree_edges.size(), 199u);  // every path edge
}

TEST(FailureDetectionTest, SilentParentIsAProtocolError) {
  GraphBuilder b(2);
  b.AddEdge(0, 1, 1);
  auto g = std::move(b).Build();
  auto states = BuildForest(g, {0}, {0});
  // The root "forgets" to participate: its child must detect the
  // protocol violation instead of silently misbehaving.
  ProcedureProgram<FlatBroadcast> program(
      g, [&states](const FlatNodeRef& node, FlatBroadcast& proc,
                   SendLane& sends) {
        const LdtState& ldt = states[node.v];
        return ldt.IsRoot() ? kFlatDone
                            : proc.Begin(node, ldt, 1, Message{}, sends);
      });
  Simulator sim(g);
  EXPECT_THROW(sim.Run(program), std::runtime_error);
}

}  // namespace
}  // namespace smst
