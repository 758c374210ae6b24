#include <array>
#include <cstdint>
#include <new>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "smst/faults/fault_plan.h"
#include "smst/graph/generators.h"
#include "smst/graph/graph.h"
#include "smst/mst/api.h"
#include "smst/runtime/lane.h"
#include "smst/runtime/simulator.h"
#include "smst/runtime/task.h"

namespace smst {
namespace {

// ---------------------------------------------------------------- Task --

Task<int> Identity(int v) { co_return v; }

Task<int> SumOfChildren() {
  int a = co_await Identity(2);
  int b = co_await Identity(40);
  co_return a + b;
}

Task<void> StoreResult(int* out) { *out = co_await SumOfChildren(); }

TEST(TaskTest, NestedTasksRunSynchronouslyToCompletion) {
  int result = 0;
  TaskRunner runner(StoreResult(&result));
  EXPECT_FALSE(runner.Done());
  runner.Start();
  EXPECT_TRUE(runner.Done());
  EXPECT_EQ(result, 42);
}

Task<void> Thrower() {
  co_await Identity(1);
  throw std::runtime_error("boom");
}

TEST(TaskTest, ExceptionIsStoredAndRethrown) {
  TaskRunner runner(Thrower());
  runner.Start();
  ASSERT_TRUE(runner.Done());
  EXPECT_THROW(runner.RethrowIfFailed(), std::runtime_error);
}

Task<int> Rethrower() {
  co_await Thrower();
  co_return 1;  // unreachable
}

Task<void> CatchInParent(bool* caught) {
  try {
    co_await Rethrower();
  } catch (const std::runtime_error&) {
    *caught = true;
  }
}

TEST(TaskTest, ExceptionsPropagateThroughNestedAwaits) {
  bool caught = false;
  TaskRunner runner(CatchInParent(&caught));
  runner.Start();
  EXPECT_TRUE(runner.Done());
  EXPECT_TRUE(caught);
}

TEST(TaskTest, DestroyingUnstartedTaskLeaksNothing) {
  // Exercised under ASan in CI-style runs; here it just must not crash.
  { auto t = Identity(5); (void)t; }
  { TaskRunner runner(StoreResult(nullptr)); (void)runner; }  // not started
  SUCCEED();
}

// ----------------------------------------------------------- Simulator --

WeightedGraph TwoNodes() {
  GraphBuilder b(2);
  b.AddEdge(0, 1, 7);
  return std::move(b).Build();
}

struct PingPongState {
  std::vector<std::uint64_t> got;  // payload received per node
};

Task<void> PingPongNode(NodeContext& ctx, PingPongState* state) {
  // Round 1: both awake; each sends its ID. Round 2: both awake again;
  // each echoes back ID+received.
  // (gtest ASSERT_* returns and cannot be used inside coroutines; throw
  // instead and let the simulator surface it.)
  auto in1 = co_await ctx.Awake(1, OutMessage{0, Message{1, ctx.Id(), 0, 0}});
  if (in1.size() != 1) throw std::logic_error("expected 1 message in round 1");
  std::uint64_t peer = in1[0].msg.a;
  auto in2 =
      co_await ctx.Awake(2, OutMessage{0, Message{2, ctx.Id() + peer, 0, 0}});
  if (in2.size() != 1) throw std::logic_error("expected 1 message in round 2");
  state->got[ctx.Index()] = in2[0].msg.a;
}

TEST(SimulatorTest, PingPongDeliversBothWays) {
  auto g = TwoNodes();
  PingPongState state{std::vector<std::uint64_t>(2, 0)};
  Simulator sim(g);
  sim.Run([&state](NodeContext& ctx) { return PingPongNode(ctx, &state); });
  // Both nodes computed id0+id1 = 1+2 = 3.
  EXPECT_EQ(state.got[0], 3u);
  EXPECT_EQ(state.got[1], 3u);
  auto stats = sim.Stats();
  EXPECT_EQ(stats.rounds, 2u);
  EXPECT_EQ(stats.max_awake, 2u);
  EXPECT_EQ(stats.total_messages, 4u);
  EXPECT_EQ(stats.dropped_messages, 0u);
}

Task<void> SendToSleeper(NodeContext& ctx, int* received_count) {
  if (ctx.Id() == 1) {
    // Node 0 (ID 1) is awake in round 1 and sends; peer sleeps.
    co_await ctx.Awake(1, OutMessage{0, Message{9, 123, 0, 0}});
  } else {
    // Node 1 (ID 2) wakes only in round 2: the round-1 message is lost.
    auto in = co_await ctx.Awake(2);
    *received_count += static_cast<int>(in.size());
  }
}

TEST(SimulatorTest, MessagesToSleepingNodesAreDropped) {
  auto g = TwoNodes();
  int received = 0;
  Simulator sim(g);
  sim.Run([&received](NodeContext& ctx) {
    return SendToSleeper(ctx, &received);
  });
  EXPECT_EQ(received, 0);
  EXPECT_EQ(sim.Stats().dropped_messages, 1u);
  EXPECT_EQ(sim.Stats().total_messages, 1u);
}

Task<void> DeepSleeper(NodeContext& ctx) {
  co_await ctx.Awake(1);
  co_await ctx.Awake(1'000'000'000);  // a billion rounds of sleep
}

TEST(SimulatorTest, EmptyRoundsAreSkippedCheaply) {
  auto g = TwoNodes();
  Simulator sim(g);
  sim.Run([](NodeContext& ctx) { return DeepSleeper(ctx); });
  auto stats = sim.Stats();
  EXPECT_EQ(stats.rounds, 1'000'000'000u);
  EXPECT_EQ(stats.max_awake, 2u);       // awake complexity is 2, not 1e9
  EXPECT_EQ(stats.awake_node_rounds, 4u);
}

Task<void> DoublePortSend(NodeContext& ctx) {
  if (ctx.Index() == 0) {
    SendBatch sends;
    sends.push_back({0, Message{1, 0, 0, 0}});
    sends.push_back({0, Message{2, 0, 0, 0}});
    co_await ctx.Awake(1, std::move(sends));
  } else {
    co_await ctx.Awake(1);
  }
}

TEST(SimulatorTest, TwoMessagesOnOnePortIsAModelViolation) {
  auto g = TwoNodes();
  Simulator sim(g);
  EXPECT_THROW(
      sim.Run([](NodeContext& ctx) { return DoublePortSend(ctx); }),
      std::logic_error);
}

Task<void> NonMonotoneAwake(NodeContext& ctx) {
  co_await ctx.Awake(5);
  co_await ctx.Awake(5);  // must be strictly increasing
}

TEST(SimulatorTest, AwakeRoundsMustStrictlyIncrease) {
  auto g = TwoNodes();
  Simulator sim(g);
  EXPECT_THROW(
      sim.Run([](NodeContext& ctx) { return NonMonotoneAwake(ctx); }),
      std::logic_error);
}

// ------------------------------------------ scheduler failure surfacing --
// An invalid Awake request (bad round, double send) fails the node from
// the round loop once its frame has suspended. The failure must surface
// as the node's own error — never std::terminate, and never masked by a
// peer's generic "never finished" error.

Task<int> NestedBadRound(NodeContext& ctx) {
  co_await ctx.Awake(3);
  co_await ctx.Awake(2);  // rejected by Register mid-run, two frames deep
  co_return 0;            // unreachable
}

Task<void> NestedBadRoundProgram(NodeContext& ctx) {
  // The bad Awake sits inside a child task: the Register exception must
  // ride the symmetric-transfer chain through the parent frame.
  (void)co_await NestedBadRound(ctx);
}

TEST(SimulatorTest, BadRoundRequestSurfacesThroughNestedTasks) {
  auto g = TwoNodes();
  Simulator sim(g);
  try {
    sim.Run([](NodeContext& ctx) { return NestedBadRoundProgram(ctx); });
    FAIL() << "bad round request did not throw";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("requested awake round"),
              std::string::npos)
        << e.what();
  }
}

Task<int> NestedDoubleSend(NodeContext& ctx) {
  SendBatch sends;
  sends.push_back({0, Message{1, 0, 0, 0}});
  sends.push_back({0, Message{2, 0, 0, 0}});
  co_await ctx.Awake(1, std::move(sends));
  co_return 0;
}

Task<void> NestedDoubleSendProgram(NodeContext& ctx) {
  (void)co_await NestedDoubleSend(ctx);
}

TEST(SimulatorTest, DoubleSendOnPortSurfacesThroughNestedTasks) {
  auto g = TwoNodes();
  Simulator sim(g);
  try {
    sim.Run([](NodeContext& ctx) { return NestedDoubleSendProgram(ctx); });
    FAIL() << "double send did not throw";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("two messages on one port"),
              std::string::npos)
        << e.what();
  }
}

Task<void> FailOrFinish(NodeContext& ctx, std::vector<int>* finished) {
  if (ctx.Index() == 1) {
    co_await ctx.Awake(2);
    co_await ctx.Awake(1);  // bad: thrown while the scheduler resumes us
  } else {
    // The peer keeps running past the failure round and completes.
    co_await ctx.Awake(1);
    co_await ctx.Awake(4);
    (*finished)[ctx.Index()] = 1;
  }
}

TEST(SimulatorTest, MidRunRegisterFailureDoesNotStrandPeers) {
  auto g = TwoNodes();
  std::vector<int> finished(2, 0);
  Simulator sim(g);
  try {
    sim.Run([&finished](NodeContext& ctx) {
      return FailOrFinish(ctx, &finished);
    });
    FAIL() << "expected the node-1 failure to surface";
  } catch (const std::logic_error& e) {
    // The root cause (node 1's bad round request), not a generic
    // "never finished" for a peer, and the peer still ran to completion.
    EXPECT_NE(std::string(e.what()).find("requested awake round"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(finished[0], 1);
}

Task<void> ThrowBeforeFirstWake(NodeContext& ctx) {
  if (ctx.Index() == 0) throw std::runtime_error("node 0 failed at start");
  co_await ctx.Awake(1);
}

TEST(SimulatorTest, StartFailureFailsOnlyItsNode) {
  // Node 0's program throws on its round-0 step, before its first wake;
  // the other seven nodes wake once each and finish.
  Xoshiro256 rng(8);
  const auto g = MakeRing(8, rng);
  const NodeProgram program = [](NodeContext& ctx) {
    return ThrowBeforeFirstWake(ctx);
  };
  for (const std::uint32_t shards : {1u, 2u}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    SimulatorOptions opt;
    opt.shards = shards;
    {
      Simulator sim(g, opt);
      try {
        sim.Run(program);
        ADD_FAILURE() << "the start failure did not surface";
      } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "node 0 failed at start");
      }
      EXPECT_EQ(sim.Stats().awake_node_rounds, 7u);
    }
    Simulator sim(g, opt);
    const RunOutcome out = sim.RunToOutcome(program);
    EXPECT_EQ(out.status, RunStatus::kCrashedPartition);
    EXPECT_EQ(out.detail, "node 0 failed at start");
    EXPECT_EQ(out.unfinished_nodes, 0u);
    EXPECT_EQ(sim.Stats().awake_node_rounds, 7u);
    EXPECT_EQ(sim.GetMetrics().Node(0).awake_rounds, 0u);
  }
}

Task<void> Runaway(NodeContext& ctx) {
  for (Round r = 1;; r += 1) co_await ctx.Awake(r);
}

TEST(SimulatorTest, WatchdogStopsRunaways) {
  auto g = TwoNodes();
  SimulatorOptions opt;
  opt.max_rounds = 100;
  Simulator sim(g, opt);
  EXPECT_THROW(sim.Run([](NodeContext& ctx) { return Runaway(ctx); }),
               std::runtime_error);
}

Task<void> RngRecorder(NodeContext& ctx, std::vector<std::uint64_t>* out) {
  (*out)[ctx.Index()] = ctx.Rng().Next();
  co_await ctx.Awake(1);
}

TEST(SimulatorTest, SameSeedSameRandomness) {
  auto g = TwoNodes();
  std::vector<std::uint64_t> a(2), b(2), c(2);
  auto run = [&g](std::uint64_t seed, std::vector<std::uint64_t>* out) {
    SimulatorOptions opt;
    opt.seed = seed;
    Simulator sim(g, opt);
    sim.Run([out](NodeContext& ctx) { return RngRecorder(ctx, out); });
  };
  run(5, &a);
  run(5, &b);
  run(6, &c);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(a[0], a[1]);  // per-node substreams differ
}

Task<void> TrianglePortCheck(NodeContext& ctx,
                             std::vector<std::vector<std::uint64_t>>* seen) {
  // Everyone sends its ID on every port in round 1; receivers record the
  // sender ID indexed by arrival port.
  SendBatch sends;
  for (std::uint32_t p = 0; p < ctx.Degree(); ++p) {
    sends.push_back({p, Message{1, ctx.Id(), 0, 0}});
  }
  auto in = co_await ctx.Awake(1, std::move(sends));
  (*seen)[ctx.Index()].assign(ctx.Degree(), 0);
  for (const InMessage& m : in) (*seen)[ctx.Index()][m.port] = m.msg.a;
}

TEST(SimulatorTest, ArrivalPortsIdentifySenders) {
  GraphBuilder b(3);
  b.AddEdge(0, 1, 1).AddEdge(1, 2, 2).AddEdge(2, 0, 3);
  auto g = std::move(b).Build();
  std::vector<std::vector<std::uint64_t>> seen(3);
  Simulator sim(g);
  sim.Run([&seen](NodeContext& ctx) {
    return TrianglePortCheck(ctx, &seen);
  });
  // Node 1's port 0 is edge (0,1) -> sender ID 1; port 1 is (1,2) -> ID 3.
  EXPECT_EQ(seen[1][0], 1u);
  EXPECT_EQ(seen[1][1], 3u);
  // Node 0's port 0 is (0,1) -> ID 2; port 1 is (2,0) -> ID 3.
  EXPECT_EQ(seen[0][0], 2u);
  EXPECT_EQ(seen[0][1], 3u);
}

TEST(SimulatorTest, MessageBitsAreAccounted) {
  auto g = TwoNodes();
  PingPongState state{std::vector<std::uint64_t>(2, 0)};
  Simulator sim(g);
  sim.Run([&state](NodeContext& ctx) { return PingPongNode(ctx, &state); });
  auto stats = sim.Stats();
  EXPECT_GT(stats.total_bits, 0u);
  // Tag byte + three fields of at most 64 bits.
  EXPECT_LE(stats.max_message_bits, 8u + 3 * 64u);
}

TEST(SimulatorTest, RunTwiceIsAnError) {
  auto g = TwoNodes();
  Simulator sim(g);
  auto program = [](NodeContext& ctx) { return DeepSleeper(ctx); };
  sim.Run(program);
  EXPECT_THROW(sim.Run(program), std::logic_error);
}

TEST(MessageTest, BitSizeGrowsWithContent) {
  Message small{1, 1, 0, 0};
  Message big{1, ~std::uint64_t{0}, ~std::uint64_t{0}, ~std::uint64_t{0}};
  EXPECT_LT(small.BitSize(), big.BitSize());
  EXPECT_EQ(big.BitSize(), 8u + 192u);
  Message zero{0, 0, 0, 0};
  EXPECT_EQ(zero.BitSize(), 8u + 3u);  // empty fields still cost one bit
}

// ------------------------------------------------------ message layout --
// message.h packs the port into the message's tail padding and the batch
// header in front of its inline slots; these pin the sizes and the one
// hazard the packing brings: a copy of `msg` must not reach the port.

TEST(MessageLayoutTest, SizesArePinned) {
  EXPECT_EQ(sizeof(Message), 32u);
  EXPECT_EQ(sizeof(InMessage), 32u);
  EXPECT_EQ(sizeof(OutMessage), 32u);
  EXPECT_EQ(sizeof(SendBatch), 144u);
  EXPECT_EQ(sizeof(InboxBatch), 144u);
  // An engine lane is a header over its node's slots (runtime/lane.h).
  EXPECT_EQ(sizeof(SendLane), 16u);
  EXPECT_EQ(sizeof(InboxLane), 16u);
  // The header comes first: the first inline slot follows its 16 bytes.
  const SendBatch batch;
  EXPECT_EQ(reinterpret_cast<const char*>(batch.data()) -
                reinterpret_cast<const char*>(&batch),
            16);
  EXPECT_TRUE(std::is_trivially_copyable_v<InMessage>);
  EXPECT_TRUE(std::is_trivially_copyable_v<OutMessage>);
}

// Out of line, so the copy cannot be specialised for the caller's object:
// through a plain Message& it must still write only the message's data.
[[gnu::noinline]] void AssignThroughReference(Message& to, const Message& from) {
  to = from;
}

TEST(MessageLayoutTest, AssigningOrSwappingMsgLeavesThePort) {
  const std::uint64_t ones = ~std::uint64_t{0};
  const Message full{0xFFFF, ones, ones, ones};
  const Message other{3, 4, 5, 6};

  InMessage in{7, Message{1, 2, 3, 4}};
  in.msg = full;
  EXPECT_EQ(in.port, 7u);
  EXPECT_EQ(in.msg, full);

  OutMessage out{9, other};
  AssignThroughReference(out.msg, full);
  EXPECT_EQ(out.port, 9u);
  EXPECT_EQ(out.msg, full);

  out.msg = other;
  std::swap(in.msg, out.msg);
  EXPECT_EQ(in.port, 7u);
  EXPECT_EQ(out.port, 9u);
  EXPECT_EQ(in.msg, other);
  EXPECT_EQ(out.msg, full);

  InboxBatch inbox;
  inbox.push_back(InMessage{11, other});
  inbox.push_back(InMessage{12, other});
  std::swap(inbox[0].msg, inbox[1].msg);
  inbox[1].msg = full;
  EXPECT_EQ(inbox[0].port, 11u);
  EXPECT_EQ(inbox[1].port, 12u);
}

TEST(MessageLayoutTest, PositionalConstructorKeepsItsMeaning) {
  const Message m{5, 6, 0, std::uint64_t{1} << 20};
  EXPECT_EQ(m.type, 5u);
  EXPECT_EQ(m.a, 6u);
  EXPECT_EQ(m.b, 0u);
  EXPECT_EQ(m.c, std::uint64_t{1} << 20);
  EXPECT_EQ(m.BitSize(), 8u + 3u + 1u + 21u);
  // Omitted trailing fields are zero, as in the aggregate it replaced.
  EXPECT_EQ((Message{9, 7}), (Message{9, 7, 0, 0}));
  EXPECT_EQ(Message{}, (Message{0, 0, 0, 0}));
  const OutMessage out{3, m};
  EXPECT_EQ(out.port, 3u);
  EXPECT_EQ(out.msg, m);
}

// ------------------------------------------------------- message lanes --
// The engine gives each node deg(v) send and inbox slots (runtime/lane.h);
// a lane that outgrows them moves to a heap buffer of its own.

TEST(MessageLaneTest, SpillsPastItsSlotsInOrderAndWorksAfterClear) {
  std::array<OutMessage, 3> slots{};
  SendLane lane(slots.data(), slots.size());
  for (std::uint32_t p = 0; p < 3; ++p) {
    lane.push_back({p, Message{1, p}});
  }
  // Filled to its port count, in place.
  EXPECT_EQ(lane.data(), slots.data());
  EXPECT_EQ(lane.capacity(), 3u);
  // One more spills, keeping the order.
  lane.emplace_back(9u, Message{2, 9});
  EXPECT_NE(lane.data(), slots.data());
  EXPECT_GT(lane.capacity(), 3u);
  std::vector<std::uint32_t> ports;
  for (const OutMessage& out : lane) ports.push_back(out.port);
  EXPECT_EQ(ports, (std::vector<std::uint32_t>{0, 1, 2, 9}));
  EXPECT_EQ(lane[3].msg, (Message{2, 9}));

  // clear() keeps the buffer; the lane fills it and spills again.
  lane.clear();
  EXPECT_TRUE(lane.empty());
  const OutMessage* buffer = lane.data();
  const std::size_t capacity = lane.capacity();
  for (std::uint32_t p = 0; p < capacity; ++p) {
    lane.push_back({p, Message{3, p}});
  }
  EXPECT_EQ(lane.data(), buffer);
  lane.push_back({100, Message{4}});
  EXPECT_GT(lane.capacity(), capacity);
  ASSERT_EQ(lane.size(), capacity + 1);
  for (std::uint32_t p = 0; p < capacity; ++p) {
    EXPECT_EQ(lane[p].port, p);
    EXPECT_EQ(lane[p].msg, (Message{3, p}));
  }
  EXPECT_EQ(lane[capacity].port, 100u);

  // A lane reads as a span, which is how a program sees its inbox.
  const std::span<const OutMessage> view = lane;
  EXPECT_EQ(view.size(), lane.size());
  EXPECT_EQ(view.data(), lane.data());

  // A degree-0 node's lane has no slots: its first push spills.
  InboxLane none(nullptr, 0);
  EXPECT_TRUE(std::span<const InMessage>(none).empty());
  none.push_back({0, Message{5}});
  ASSERT_EQ(none.size(), 1u);
  EXPECT_EQ(none[0].msg, Message{5});
}

// Every node pushes one send per port and then a second on port 0:
// deg(v) + 1 sends, one more than its send lane has slots.
class OneSendTooMany final : public FlatProgram {
 public:
  explicit OneSendTooMany(const WeightedGraph& g) : g_(&g) {}

  Round Step(NodeIndex v, Round now, std::span<const InMessage>,
             SendLane& sends) override {
    if (now != 0) return kFlatDone;
    const auto degree = static_cast<std::uint32_t>(g_->DegreeOf(v));
    for (std::uint32_t p = 0; p < degree; ++p) {
      sends.push_back({p, Message{1, v}});
    }
    sends.push_back({0, Message{2, v}});
    return 1;
  }

 private:
  const WeightedGraph* g_;
};

TEST(MessageLaneTest, OneSendPastThePortsFailsTheNode) {
  Xoshiro256 rng(4);
  // Degrees 1-2, 2, and a degree-80 center (past the 64-port bitset).
  const std::vector<WeightedGraph> graphs = {
      MakePath(6, rng), MakeRing(8, rng), MakeStar(81, rng)};
  const FaultPlan plan = ParseFaultPlan("salt=1,drop=0.0001");
  for (const WeightedGraph& g : graphs) {
    for (const std::uint32_t shards : {1u, 2u}) {
      SCOPED_TRACE("n=" + std::to_string(g.NumNodes()) + " shards " +
                   std::to_string(shards));
      OneSendTooMany program(g);
      SimulatorOptions opt;
      opt.shards = shards;
      {
        Simulator sim(g, opt);
        try {
          sim.Run(program);
          ADD_FAILURE() << "the extra send was accepted";
        } catch (const std::logic_error& e) {
          EXPECT_STREQ(e.what(), "two messages on one port in one round");
        }
      }
      // Under an adversary the same violation is a fault effect.
      opt.fault_plan = &plan;
      Simulator sim(g, opt);
      const RunOutcome out = sim.RunToOutcome(program);
      EXPECT_EQ(out.status, RunStatus::kCrashedPartition);
      EXPECT_EQ(out.detail,
                "node 0 sent two messages on one port in one round "
                "(fault-corrupted protocol state)");
      Simulator again(g, opt);
      EXPECT_THROW(again.Run(program), std::runtime_error);
    }
  }
}

// `--graph path --n 8 --algo randomized --seed 1 --fault-plan dup=1`:
// every message is duplicated, so a degree-1 endpoint gets two messages
// on its one port and its inbox lane spills, on the fresh and cross-shard
// paths alike. The run ends in a crashed-partition once a duplicate
// tricks a node into a double send; every shard layout must replay it
// field for field, and the audit must stay clean.
MstRunResult DuplicatedPathRun(std::uint32_t shards, ShardPolicy policy) {
  Xoshiro256 rng(1);
  const WeightedGraph g = MakePath(8, rng);
  const FaultPlan plan = ParseFaultPlan("dup=1");
  MstOptions opt;
  opt.seed = 1;
  opt.fault_plan = &plan;
  opt.audit = AuditMode::kOn;
  opt.shards = shards;
  opt.shard_policy = policy;
  return ComputeMst(g, MstAlgorithm::kRandomized, opt);
}

TEST(MessageLaneTest, OverfullInboxesReplayOnEveryShardLayout) {
  const MstRunResult serial =
      DuplicatedPathRun(0, ShardPolicy::kContiguousBlocks);
  EXPECT_EQ(serial.outcome.status, RunStatus::kCrashedPartition);
  EXPECT_EQ(serial.outcome.detail,
            "node 0 sent two messages on one port in one round "
            "(fault-corrupted protocol state)");
  EXPECT_EQ(serial.outcome.faults.injected_duplicates, 161u);
  EXPECT_EQ(serial.stats.total_messages, 161u);
  EXPECT_EQ(serial.outcome.audit_violations, 0u);
  EXPECT_GT(serial.outcome.audited_awake_node_rounds, 0u);
  for (const std::uint32_t shards : {2u, 4u}) {
    for (const ShardPolicy policy :
         {ShardPolicy::kContiguousBlocks, ShardPolicy::kRoundRobin}) {
      SCOPED_TRACE(std::to_string(shards) + " shards, " +
                   ShardPolicyName(policy));
      const MstRunResult sharded = DuplicatedPathRun(shards, policy);
      EXPECT_EQ(sharded.outcome, serial.outcome);
      EXPECT_EQ(sharded.tree_edges, serial.tree_edges);
      EXPECT_EQ(sharded.phases, serial.phases);
      EXPECT_EQ(sharded.fragments_per_phase, serial.fragments_per_phase);
      EXPECT_EQ(sharded.stats.rounds, serial.stats.rounds);
      EXPECT_EQ(sharded.stats.max_awake, serial.stats.max_awake);
      EXPECT_EQ(sharded.stats.avg_awake, serial.stats.avg_awake);
      EXPECT_EQ(sharded.stats.total_messages, serial.stats.total_messages);
      EXPECT_EQ(sharded.stats.total_bits, serial.stats.total_bits);
      EXPECT_EQ(sharded.stats.max_message_bits,
                serial.stats.max_message_bits);
      EXPECT_EQ(sharded.stats.dropped_messages,
                serial.stats.dropped_messages);
      EXPECT_EQ(sharded.stats.awake_node_rounds,
                serial.stats.awake_node_rounds);
      ASSERT_EQ(sharded.node_metrics.size(), serial.node_metrics.size());
      for (std::size_t v = 0; v < serial.node_metrics.size(); ++v) {
        const NodeMetrics& a = serial.node_metrics[v];
        const NodeMetrics& b = sharded.node_metrics[v];
        EXPECT_EQ(b.awake_rounds, a.awake_rounds) << "node " << v;
        EXPECT_EQ(b.messages_sent, a.messages_sent) << "node " << v;
        EXPECT_EQ(b.bits_sent, a.bits_sent) << "node " << v;
        EXPECT_EQ(b.messages_dropped, a.messages_dropped) << "node " << v;
      }
    }
  }
}

// n = 1: a node of degree 0 has no slots at all.
WeightedGraph OneNode() {
  GraphBuilder b(1);
  return std::move(b).Build();
}

Task<void> LonelyNode(NodeContext& ctx, std::size_t* received) {
  *received += (co_await ctx.Awake(1)).size();
  *received += (co_await ctx.Awake(2)).size();
}

class LonelyFlatNode final : public FlatProgram {
 public:
  Round Step(NodeIndex, Round now, std::span<const InMessage> inbox,
             SendLane& sends) override {
    received += inbox.size();
    EXPECT_TRUE(sends.empty());
    return now < 2 ? now + 1 : kFlatDone;
  }
  std::size_t received = 0;
};

TEST(MessageLaneTest, ADegreeZeroNodeRunsUnderBothProgramKinds) {
  const WeightedGraph g = OneNode();
  ASSERT_EQ(g.DegreeOf(0), 0u);
  std::size_t received = 0;
  Simulator coroutine(g);
  coroutine.Run([&received](NodeContext& ctx) {
    return LonelyNode(ctx, &received);
  });
  EXPECT_EQ(received, 0u);
  EXPECT_EQ(coroutine.Stats().awake_node_rounds, 2u);
  EXPECT_EQ(coroutine.Stats().rounds, 2u);

  LonelyFlatNode flat;
  Simulator sim(g);
  sim.Run(flat);
  EXPECT_EQ(flat.received, 0u);
  EXPECT_EQ(sim.Stats().awake_node_rounds, 2u);
  EXPECT_EQ(sim.Stats().rounds, 2u);
}

// ------------------------------------------------ host allocation failure --
// std::bad_alloc from a node's step is the host running out of memory,
// not the node failing: the run ends with it on every path.

class OutOfMemoryAt final : public FlatProgram {
 public:
  explicit OutOfMemoryAt(NodeIndex victim) : victim_(victim) {}

  Round Step(NodeIndex v, Round now, std::span<const InMessage>,
             SendLane&) override {
    if (v == victim_ && now == 2) throw std::bad_alloc();
    return now < 3 ? now + 1 : kFlatDone;
  }

 private:
  NodeIndex victim_;
};

TEST(SimulatorTest, AllocationFailureEndsTheRun) {
  Xoshiro256 rng(6);
  const WeightedGraph g = MakeRing(16, rng);
  const FaultPlan plan = ParseFaultPlan("salt=2,drop=0.0001");
  for (const std::uint32_t shards : {1u, 2u}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    OutOfMemoryAt program(5);
    SimulatorOptions opt;
    opt.shards = shards;
    {
      Simulator sim(g, opt);
      EXPECT_THROW(sim.Run(program), std::bad_alloc);
    }
    {
      Simulator sim(g, opt);
      EXPECT_THROW(sim.RunToOutcome(program), std::bad_alloc);
    }
    opt.fault_plan = &plan;
    Simulator sim(g, opt);
    EXPECT_THROW(sim.RunToOutcome(program), std::bad_alloc);
  }
}

}  // namespace
}  // namespace smst
