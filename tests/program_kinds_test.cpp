// Coroutine and flat programs on the one round loop. The same protocol,
// written once as a coroutine NodeProgram and once as a FlatProgram, must
// give identical runs on every path the scheduler has: plain serial (with
// the fused all-awake sweep), audited, faulted, and sharded under both
// partition policies. The protocol wakes several times at clock- and
// inbox-dependent rounds, sends to neighbors that sleep, and has one node
// that finishes without ever waking.
#include <cstdint>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "smst/faults/fault_plan.h"
#include "smst/graph/generators.h"
#include "smst/runtime/flat/driver.h"
#include "smst/runtime/simulator.h"

namespace smst {
namespace {

// Everything a run of the protocol produces.
struct Outcomes {
  RunOutcome outcome;
  std::vector<NodeMetrics> metrics;
  std::vector<TraceEvent> trace;
  std::vector<std::uint64_t> acc;                 // each node's final value
  std::vector<std::vector<Round>> rounds_seen;    // the clock after each wake
};

struct Protocol {
  // Node that finishes without waking (kInvalidNode = none).
  NodeIndex quiet = kInvalidNode;
  // First wakes spread over rounds 1..3 (else every node wakes in round 1,
  // an all-awake round).
  bool spread = true;

  Round First(NodeIndex v) const { return spread ? 1 + v % 3 : 1; }
  static int Wakes(NodeIndex v) { return 3 + static_cast<int>(v % 3); }
  static Message Payload(std::uint64_t acc, int wakes_left,
                         std::uint32_t port) {
    return Message{7, acc, static_cast<std::uint64_t>(wakes_left), port};
  }
  static std::uint64_t Absorb(std::uint64_t acc,
                              std::span<const InMessage> inbox) {
    for (const InMessage& m : inbox) acc = acc * 31 + (m.msg.a ^ m.port);
    return acc;
  }
  // Depends on the clock, the inbox and the node's private randomness.
  static Round Next(Round now, std::uint64_t acc,
                    std::span<const InMessage> inbox, Xoshiro256& rng) {
    return now + 1 + acc % 3 + inbox.size() % 2 + rng.Next() % 2;
  }
};

// Pushes one message on every port: into a coroutine's SendBatch or a
// flat program's SendLane.
template <typename Sends>
void PushAllPorts(Sends& sends, std::size_t degree, std::uint64_t acc,
                  int wakes_left) {
  for (std::uint32_t p = 0; p < degree; ++p) {
    sends.push_back({p, Protocol::Payload(acc, wakes_left, p)});
  }
}

Task<void> CoroutineNode(NodeContext& ctx, Protocol proto, Outcomes* run) {
  const NodeIndex v = ctx.Index();
  // Before the first wake the clock reads 0.
  run->rounds_seen[v].push_back(ctx.CurrentRound());
  if (v == proto.quiet) co_return;
  std::uint64_t acc = ctx.Id();
  Round next = proto.First(v);
  for (int left = Protocol::Wakes(v); left > 0; --left) {
    SendBatch sends;
    PushAllPorts(sends, ctx.Degree(), acc, left);
    const InboxBatch inbox = co_await ctx.Awake(next, std::move(sends));
    const Round now = ctx.CurrentRound();
    run->rounds_seen[v].push_back(now);
    acc = Protocol::Absorb(acc, inbox);
    next = Protocol::Next(now, acc, inbox, ctx.Rng());
  }
  run->acc[v] = acc;
}

class FlatNode final : public FlatProgram {
 public:
  FlatNode(const WeightedGraph& g, Protocol proto, std::uint64_t seed,
           Outcomes* run)
      : g_(&g), proto_(proto), run_(run), state_(g.NumNodes()) {
    const Xoshiro256 root(seed);
    for (NodeIndex v = 0; v < g.NumNodes(); ++v) {
      state_[v].rng = root.Split(v);
    }
  }

  Round Step(NodeIndex v, Round now, std::span<const InMessage> inbox,
             SendLane& sends) override {
    State& st = state_[v];
    run_->rounds_seen[v].push_back(now);
    if (now == 0) {
      if (v == proto_.quiet) return kFlatDone;
      st.acc = g_->IdOf(v);
      st.left = Protocol::Wakes(v);
      PushAllPorts(sends, g_->DegreeOf(v), st.acc, st.left);
      return proto_.First(v);
    }
    st.acc = Protocol::Absorb(st.acc, inbox);
    const Round next = Protocol::Next(now, st.acc, inbox, st.rng);
    if (--st.left == 0) {
      run_->acc[v] = st.acc;
      return kFlatDone;
    }
    PushAllPorts(sends, g_->DegreeOf(v), st.acc, st.left);
    return next;
  }

 private:
  struct State {
    std::uint64_t acc = 0;
    int left = 0;
    Xoshiro256 rng{0};
  };
  const WeightedGraph* g_;
  Protocol proto_;
  Outcomes* run_;
  std::vector<State> state_;
};

struct Config {
  std::string name;
  Protocol proto;
  std::uint32_t shards = 0;
  ShardPolicy policy = ShardPolicy::kContiguousBlocks;
  AuditMode audit = AuditMode::kOff;
  const FaultPlan* plan = nullptr;
};

// A serial run may be traced; tracing observes the run, so it also takes
// every round off the fused sweep.
Outcomes Execute(const WeightedGraph& g, const Config& c, bool coroutine,
                 bool traced = false) {
  constexpr std::uint64_t kSeed = 11;
  Outcomes run;
  run.acc.assign(g.NumNodes(), 0);
  run.rounds_seen.resize(g.NumNodes());
  SimulatorOptions opt;
  opt.seed = kSeed;
  opt.record_wake_times = true;
  opt.fault_plan = c.plan;
  opt.audit = c.audit;
  opt.shards = c.shards;
  opt.shard_policy = c.policy;
  if (traced) {
    opt.trace = [&run](const TraceEvent& e) { run.trace.push_back(e); };
  }
  Simulator sim(g, opt);
  if (coroutine) {
    const Protocol proto = c.proto;
    run.outcome = sim.RunToOutcome([proto, &run](NodeContext& ctx) {
      return CoroutineNode(ctx, proto, &run);
    });
  } else {
    FlatNode program(g, c.proto, kSeed, &run);
    run.outcome = sim.RunToOutcome(program);
  }
  run.metrics = sim.GetMetrics().PerNode();
  return run;
}

auto Fields(const TraceEvent& e) {
  return std::tuple(e.round, e.node, e.sent, e.received, e.dropped,
                    e.injected_drops, e.injected_delays, e.injected_dups);
}

void ExpectSameRun(const Outcomes& a, const Outcomes& b, bool compare_trace) {
  EXPECT_EQ(a.outcome, b.outcome);
  EXPECT_EQ(a.acc, b.acc);
  EXPECT_EQ(a.rounds_seen, b.rounds_seen);
  ASSERT_EQ(a.metrics.size(), b.metrics.size());
  for (std::size_t v = 0; v < a.metrics.size(); ++v) {
    SCOPED_TRACE("node " + std::to_string(v));
    EXPECT_EQ(a.metrics[v].awake_rounds, b.metrics[v].awake_rounds);
    EXPECT_EQ(a.metrics[v].messages_sent, b.metrics[v].messages_sent);
    EXPECT_EQ(a.metrics[v].bits_sent, b.metrics[v].bits_sent);
    EXPECT_EQ(a.metrics[v].messages_dropped, b.metrics[v].messages_dropped);
    EXPECT_EQ(a.metrics[v].wake_times, b.metrics[v].wake_times);
  }
  if (!compare_trace) return;
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (std::size_t i = 0; i < a.trace.size(); ++i) {
    EXPECT_EQ(Fields(a.trace[i]), Fields(b.trace[i])) << "event " << i;
  }
}

TEST(ProgramKindsTest, CoroutineAndFlatProgramsRunIdentically) {
  Xoshiro256 rng(31);
  const WeightedGraph g = MakeErdosRenyi(14, 0.3, rng);
  const NodeIndex quiet = static_cast<NodeIndex>(g.NumNodes() - 1);
  const FaultPlan plan = ParseFaultPlan(
      "salt=5,drop=0.1,delay=2:0.1,dup=0.1,jitter=1:0.2,crash=4:0.3");
  const Protocol sparse{quiet, true};
  const std::vector<Config> table = {
      {"serial", sparse},
      {"serial, all awake in round 1", Protocol{kInvalidNode, false}},
      {"audited", sparse, 0, ShardPolicy::kContiguousBlocks, AuditMode::kOn},
      {"faulted", sparse, 0, ShardPolicy::kContiguousBlocks, AuditMode::kOff,
       &plan},
      {"2 shards, block", sparse, 2, ShardPolicy::kContiguousBlocks},
      {"2 shards, rr", sparse, 2, ShardPolicy::kRoundRobin},
      {"2 shards, block, faulted", sparse, 2, ShardPolicy::kContiguousBlocks,
       AuditMode::kOff, &plan},
      {"2 shards, rr, faulted", sparse, 2, ShardPolicy::kRoundRobin,
       AuditMode::kOff, &plan},
  };
  const Outcomes serial = Execute(g, table[0], /*coroutine=*/true);
  const Outcomes faulted = Execute(g, table[3], /*coroutine=*/true);
  for (const Config& c : table) {
    SCOPED_TRACE(c.name);
    const Outcomes coro = Execute(g, c, /*coroutine=*/true);
    const Outcomes flat = Execute(g, c, /*coroutine=*/false);
    ExpectSameRun(coro, flat, /*compare_trace=*/false);
    if (c.shards == 0) {
      // Traced, the same run with one event per awake node and round.
      const Outcomes traced = Execute(g, c, /*coroutine=*/true, true);
      ExpectSameRun(traced, Execute(g, c, /*coroutine=*/false, true),
                    /*compare_trace=*/true);
      ExpectSameRun(coro, traced, /*compare_trace=*/false);
      EXPECT_FALSE(traced.trace.empty());
    }
    // The clock read after each wake is the round the node woke in.
    for (NodeIndex v = 0; v < g.NumNodes(); ++v) {
      ASSERT_FALSE(coro.rounds_seen[v].empty());
      EXPECT_EQ(coro.rounds_seen[v].front(), 0u) << "node " << v;
      const std::vector<Round> woke(coro.rounds_seen[v].begin() + 1,
                                    coro.rounds_seen[v].end());
      EXPECT_EQ(woke, coro.metrics[v].wake_times) << "node " << v;
    }
    // Sharding changes nothing but the trace, which it does not support.
    if (c.shards != 0) {
      ExpectSameRun(c.plan ? faulted : serial, coro, /*compare_trace=*/false);
    }
  }
  // The protocol exercises what the table is meant to cover.
  EXPECT_TRUE(serial.outcome.Ok());
  EXPECT_EQ(serial.metrics[quiet].awake_rounds, 0u);
  std::uint64_t drops = 0;
  for (const NodeMetrics& m : serial.metrics) drops += m.messages_dropped;
  EXPECT_GT(drops, 0u);
  EXPECT_GT(faulted.outcome.faults.injected_drops, 0u);
  EXPECT_GT(faulted.outcome.faults.injected_delays, 0u);
  EXPECT_GT(faulted.outcome.faults.injected_duplicates, 0u);
  EXPECT_GT(faulted.outcome.faults.jittered_wakes, 0u);
  EXPECT_GT(faulted.outcome.faults.crashed_nodes, 0u);
}

Task<void> WakeAtZero(NodeContext& ctx, std::vector<Round>* woke) {
  co_await ctx.Awake(0);
  (*woke)[ctx.Index()] = ctx.CurrentRound();
}

TEST(ProgramKindsTest, AwakeAtRoundZeroFailsUnlessAFaultPlanClampsIt) {
  Xoshiro256 rng(32);
  const WeightedGraph g = MakeRing(8, rng);
  std::vector<Round> woke(g.NumNodes(), 0);
  const NodeProgram program = [&woke](NodeContext& ctx) {
    return WakeAtZero(ctx, &woke);
  };
  {
    Simulator sim(g);
    try {
      sim.Run(program);
      ADD_FAILURE() << "Awake(0) did not fail";
    } catch (const std::logic_error& e) {
      EXPECT_NE(std::string(e.what()).find(
                    "node 0 requested awake round 0 but the clock is "
                    "already at 0"),
                std::string::npos)
          << e.what();
    }
  }
  // Under a plan without jitter the request is clamped to the next round.
  {
    const FaultPlan plan = ParseFaultPlan("drop=0.5");
    SimulatorOptions opt;
    opt.fault_plan = &plan;
    Simulator sim(g, opt);
    EXPECT_TRUE(sim.RunToOutcome(program).Ok());
    EXPECT_EQ(woke, std::vector<Round>(g.NumNodes(), 1));
  }
  // Jitter hashes the request as made: round 0, not the clamped round 1.
  {
    const FaultPlan plan = ParseFaultPlan("salt=2,jitter=3");
    SimulatorOptions opt;
    opt.seed = 4;
    opt.fault_plan = &plan;
    std::vector<Round> want(g.NumNodes());
    std::vector<Round> if_clamped_first(g.NumNodes());
    FaultSession session(&plan, opt.seed, g.NumNodes());
    for (NodeIndex v = 0; v < g.NumNodes(); ++v) {
      want[v] = session.PerturbWake(v, 0, 1);
      if_clamped_first[v] = session.PerturbWake(v, 1, 1);
    }
    ASSERT_NE(want, if_clamped_first) << "the plan cannot tell them apart";
    Simulator sim(g, opt);
    EXPECT_TRUE(sim.RunToOutcome(program).Ok());
    EXPECT_EQ(woke, want);
  }
}

// Node 0 throws on its round-0 step; every other node wakes in round 1,
// sends on every port and finishes.
class ThrowAtStart final : public FlatProgram {
 public:
  explicit ThrowAtStart(const WeightedGraph& g) : g_(&g) {}

  Round Step(NodeIndex v, Round now, std::span<const InMessage>,
             SendLane& sends) override {
    if (now != 0) return kFlatDone;
    if (v == 0) throw std::runtime_error("node 0 failed at start");
    PushAllPorts(sends, g_->DegreeOf(v), v, 1);
    return 1;
  }

 private:
  const WeightedGraph* g_;
};

TEST(ProgramKindsTest, StartFailureFailsOnlyItsNode) {
  Xoshiro256 rng(8);
  const WeightedGraph g = MakeRing(8, rng);
  for (const std::uint32_t shards : {1u, 2u}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    SimulatorOptions opt;
    opt.shards = shards;
    ThrowAtStart program(g);
    {
      Simulator sim(g, opt);
      try {
        sim.Run(program);
        ADD_FAILURE() << "the start failure did not surface";
      } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "node 0 failed at start");
      }
    }
    Simulator sim(g, opt);
    const RunOutcome out = sim.RunToOutcome(program);
    EXPECT_EQ(out.status, RunStatus::kCrashedPartition);
    EXPECT_EQ(out.detail, "node 0 failed at start");
    EXPECT_EQ(out.unfinished_nodes, 0u);
    // The peers still ran: one metered wake each, and their sends to the
    // failed node are model drops.
    const RunStats stats = sim.Stats();
    EXPECT_EQ(stats.awake_node_rounds, 7u);
    EXPECT_EQ(sim.GetMetrics().Node(0).awake_rounds, 0u);
    EXPECT_EQ(stats.dropped_messages, 2u);
  }
}

// A script whose first wake is conditional and unbraced: only the even
// nodes wake in round 1, then every node wakes in round 2.
class ConditionalWake final : public FlatProgram {
 public:
  explicit ConditionalWake(std::size_t n) : state_(n) {}

  Round Step(NodeIndex v, Round now, std::span<const InMessage>,
             SendLane&) override {
    State& st = state_[v];
    if (now != 0) st.woke.push_back(now);
    switch (st.pc) {
      default:
        throw std::logic_error("flat program: corrupt pc");
      case 0:
        if (v % 2 == 0) SMST_FLAT_AWAKE(st, 1);
        SMST_FLAT_AWAKE(st, 2);
        return kFlatDone;
    }
  }
  const std::vector<Round>& Woke(NodeIndex v) const { return state_[v].woke; }

 private:
  struct State {
    int pc = 0;
    std::vector<Round> woke;
  };

  std::vector<State> state_;
};

TEST(ProgramKindsTest, ConditionalWakeIsOneStatement) {
  Xoshiro256 rng(5);
  const WeightedGraph g = MakeRing(6, rng);
  ConditionalWake program(g.NumNodes());
  Simulator sim(g);
  sim.Run(program);
  for (NodeIndex v = 0; v < g.NumNodes(); ++v) {
    EXPECT_EQ(program.Woke(v),
              (v % 2 == 0 ? std::vector<Round>{1, 2} : std::vector<Round>{2}))
        << "node " << v;
  }
}

}  // namespace
}  // namespace smst
