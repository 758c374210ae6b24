// Allocation-regression harness: pins the engine's zero-allocation
// steady state so it cannot silently regress.
//
// This binary replaces global operator new/delete with counting
// versions (test-only; nothing here leaks into the library). The core
// assertion style is *marginal*, not absolute: run the same workload at
// two different round counts after a warm-up run and require the total
// allocation counts to be equal — i.e. zero allocations per additional
// awake node-round. Absolute counts would be brittle across standard
// libraries; marginal counts are exact and portable.
//
// A coroutine program allocates one frame per node, not per round, so
// the marginal assertions hold under ASan too, where coroutine frames
// skip the per-thread free lists (runtime/frame_pool.cpp); only the
// frame-reuse test skips there.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <numbers>
#include <span>
#include <stdexcept>
#include <thread>

#include "smst/graph/generators.h"
#include "smst/graph/graph.h"
#include "smst/mst/api.h"
#include "smst/mst/randomized_mst.h"
#include "smst/runtime/simulator.h"

namespace {

// Thread-local so the count is exact for the (single-threaded) workload
// under measurement even if other threads existed.
thread_local std::uint64_t t_alloc_count = 0;

// Blocks allocated and not yet freed, summed over every thread.
std::atomic<std::int64_t> g_live_blocks{0};

void CountedFree(void* p) noexcept {
  if (p != nullptr) g_live_blocks.fetch_sub(1, std::memory_order_relaxed);
  std::free(p);
}

}  // namespace

void* operator new(std::size_t n) {
  ++t_alloc_count;
  if (void* p = std::malloc(n)) {
    g_live_blocks.fetch_add(1, std::memory_order_relaxed);
    return p;
  }
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { CountedFree(p); }
void operator delete(void* p, std::size_t) noexcept { CountedFree(p); }

namespace smst {
namespace {

template <typename Fn>
std::uint64_t CountAllocs(Fn&& fn) {
  const std::uint64_t before = t_alloc_count;
  fn();
  return t_alloc_count - before;
}

// Every node awake and chattering on all ports every round — the same
// shape as bench_micro's dense-round engine benchmark.
Task<void> PingNode(NodeContext& ctx, int rounds) {
  for (int r = 1; r <= rounds; ++r) {
    SendBatch sends;
    sends.reserve(ctx.Degree());
    for (std::uint32_t p = 0; p < ctx.Degree(); ++p) {
      sends.push_back({p, Message{1, ctx.Id(), 0, 0}});
    }
    co_await ctx.Awake(static_cast<Round>(r), std::move(sends));
  }
}

RunStats RunPing(const WeightedGraph& g, int rounds,
                 std::uint32_t shards = 0) {
  SimulatorOptions options;
  options.shards = shards;
  Simulator sim(g, options);
  sim.Run([rounds](NodeContext& ctx) { return PingNode(ctx, rounds); });
  return sim.Stats();
}

TEST(AllocationRegressionTest, EngineSteadyStateIsAllocationFree) {
  Xoshiro256 rng(7);
  const auto g = MakeRing(64, rng);
  RunPing(g, 8);  // warm-up: frame free lists, lazy library set-up

  const std::uint64_t short_run = CountAllocs([&] { RunPing(g, 32); });
  const std::uint64_t long_run = CountAllocs([&] { RunPing(g, 128); });
  // The extra (128 - 32) * 64 = 6144 awake node-rounds must cost zero
  // heap allocations: inline message batches, one coroutine frame per
  // node, and a wake queue whose entries live in fixed per-node slots.
  EXPECT_EQ(long_run, short_run)
      << "steady-state allocations now scale with awake node-rounds";
}

// A thread keeps the frames it frees on its free lists, so a repeat run
// on the same thread takes its per-node frames from them instead of
// from operator new. The marginal form again: the 960 extra nodes may
// add only the geometric growth of the run's arrays, not a frame each.
TEST(AllocationRegressionTest, RepeatCoroutineRunsReuseFrames) {
#ifdef __SANITIZE_ADDRESS__
  GTEST_SKIP() << "ASan builds give every frame to operator new";
#endif
  Xoshiro256 rng_small(7), rng_large(7);
  const auto small = MakeRing(64, rng_small);
  const auto large = MakeRing(1024, rng_large);
  RunPing(large, 4);  // warm-up: leaves 1024 frames on this thread's lists
  const std::uint64_t small_run = CountAllocs([&] { RunPing(small, 4); });
  const std::uint64_t large_run = CountAllocs([&] { RunPing(large, 4); });
  EXPECT_LT(large_run, small_run + 64)
      << "n=64: " << small_run << " allocations, n=1024: " << large_run;
}

// A thread's free lists die with it, and a sharded run frees each
// shard's frames on the worker that allocated them. So once a serial run
// on a joined thread, or a 2-shard run started and destroyed here, is
// over, every block it allocated is freed: none is left on a dead
// thread's lists or stranded on this thread's.
TEST(AllocationRegressionTest, FramesAreFreedWithTheirThreads) {
  Xoshiro256 rng(7);
  const auto g = MakeRing(256, rng);
  const auto on_thread = [&g] {
    std::thread t([&g] { RunPing(g, 4); });
    t.join();
  };
  on_thread();  // warm-up: lazy library and thread set-up
  RunPing(g, 4, /*shards=*/2);

  const std::int64_t baseline = g_live_blocks.load();
  on_thread();
  const std::int64_t after_thread = g_live_blocks.load();
  RunPing(g, 4, /*shards=*/2);
  const std::int64_t after_sharded = g_live_blocks.load();
  EXPECT_EQ(after_thread, baseline) << "serial run on a joined thread";
  EXPECT_EQ(after_sharded, baseline) << "2-shard run";
}

// --- satellite: degree > 64 exercises Register's scratch bitset -------

WeightedGraph MakeHighDegreeStar(std::size_t leaves) {
  GraphBuilder b(leaves + 1);
  for (std::size_t i = 0; i < leaves; ++i) {
    b.AddEdge(0, static_cast<NodeIndex>(i + 1), static_cast<Weight>(i + 1));
  }
  return std::move(b).Build();
}

// The center broadcasts on all (>64) ports every round; leaves are awake
// listening. Register's duplicate-port check must use the reusable
// scratch bitset, not a fresh vector<bool> per awake.
Task<void> StarNode(NodeContext& ctx, int rounds) {
  const bool center = ctx.Degree() > 1;
  for (int r = 1; r <= rounds; ++r) {
    SendBatch sends;
    if (center) {
      sends.reserve(ctx.Degree());
      for (std::uint32_t p = 0; p < ctx.Degree(); ++p) {
        sends.push_back({p, Message{2, ctx.Id(), 0, 0}});
      }
    }
    co_await ctx.Awake(static_cast<Round>(r), std::move(sends));
  }
}

std::uint64_t RunStar(const WeightedGraph& g, int rounds) {
  Simulator sim(g);
  sim.Run([rounds](NodeContext& ctx) { return StarNode(ctx, rounds); });
  return sim.Stats().awake_node_rounds;
}

TEST(AllocationRegressionTest, HighDegreeRegisterUsesScratchBitset) {
  const auto g = MakeHighDegreeStar(80);  // center degree 80 > 64
  RunStar(g, 4);  // warm-up

  const std::uint64_t short_run = CountAllocs([&] { RunStar(g, 8); });
  const std::uint64_t long_run = CountAllocs([&] { RunStar(g, 32); });
  // Per extra round the only permitted allocation is the center's
  // 80-entry SendBatch spilling past its inline capacity — exactly one.
  // Register itself (the old per-awake vector<bool>) must contribute
  // zero; before the scratch bitset this margin was several per round.
  EXPECT_EQ(long_run - short_run, std::uint64_t{32 - 8})
      << "degree>64 awake path allocates more than the send spill";
}

TEST(AllocationRegressionTest, HighDegreeDuplicatePortStillDetected) {
  const auto g = MakeHighDegreeStar(80);
  Simulator sim(g);
  EXPECT_THROW(
      sim.Run([](NodeContext& ctx) -> Task<void> {
        SendBatch sends;
        if (ctx.Degree() > 1) {
          sends.push_back({70, Message{3, 1, 0, 0}});
          sends.push_back({70, Message{3, 2, 0, 0}});  // duplicate port
        }
        co_await ctx.Awake(1, std::move(sends));
      }),
      std::logic_error);
}

// --- message lanes sized by degree -----------------------------------

// A flat program that sends on every port in rounds 1..rounds.
class FloodEveryPort final : public FlatProgram {
 public:
  FloodEveryPort(const WeightedGraph& g, Round rounds)
      : g_(&g), rounds_(rounds) {}

  Round Step(NodeIndex v, Round now, std::span<const InMessage>,
             SendLane& sends) override {
    if (now == rounds_) return kFlatDone;
    const auto degree = static_cast<std::uint32_t>(g_->DegreeOf(v));
    for (std::uint32_t p = 0; p < degree; ++p) {
      sends.push_back({p, Message{1, v, now}});
    }
    return now + 1;
  }

 private:
  const WeightedGraph* g_;
  Round rounds_;
};

std::uint64_t RunFlood(const WeightedGraph& g) {
  FloodEveryPort program(g, 8);
  return CountAllocs([&] {
    Simulator sim(g);
    sim.Run(program);
  });
}

// Each node's send and inbox lanes hold one slot per port, so a node of
// degree ~8 sending on every port fills its lanes without spilling: four
// times the nodes may add only the engine's geometric vector growth, not
// an allocation per node (inline batches of 4 spilled twice per node of
// degree > 4 here).
TEST(AllocationRegressionTest, HighDegreeLanesDoNotAllocatePerNode) {
  Xoshiro256 rng_small(9), rng_large(9);
  const auto small = MakeErdosRenyi(256, 8.0 / 256, rng_small);
  const auto large = MakeErdosRenyi(1024, 8.0 / 1024, rng_large);
  RunFlood(small);  // warm-up
  const std::uint64_t small_run = RunFlood(small);
  const std::uint64_t large_run = RunFlood(large);
  EXPECT_LT(large_run, small_run + 64)
      << "n=256: " << small_run << " allocations, n=1024: " << large_run;
}

// --- end-to-end budget on a real algorithm ----------------------------

TEST(AllocationRegressionTest, RandomizedMstStaysWithinAllocationBudget) {
  Xoshiro256 rng(1);
  const auto g = MakeErdosRenyi(128, 8.0 / 128, rng);
  RunRandomizedMst(g, {.seed = 1});  // warm-up

  std::uint64_t awake_rounds = 0;
  const std::uint64_t allocs = CountAllocs([&] {
    awake_rounds = RunRandomizedMst(g, {.seed = 1}).stats.awake_node_rounds;
  });
  ASSERT_GT(awake_rounds, 0u);
  // Whole-run budget. The engine's steady state is allocation-free (see
  // EngineSteadyStateIsAllocationFree), and its message lanes hold deg(v)
  // slots each, so they never spill on a fault-free run at any degree
  // (HighDegreeLanesDoNotAllocatePerNode); what remains here is run
  // setup: the graph-sized arrays of the engine and the MST program, and
  // the geometric growth of the run's few vectors. The pin catches any
  // regression back toward the old ~3-5 allocations per awake
  // node-round.
  const double per_awake_round =
      static_cast<double>(allocs) / static_cast<double>(awake_rounds);
  EXPECT_LT(per_awake_round, 1.0)
      << "allocs=" << allocs << " awake_node_rounds=" << awake_rounds;
}

// Per-node state of the MST programs lives inline or in arrays sized
// once per run, so a run's allocation count must not grow with n. The
// marginal form again: the 768 extra nodes (and their ports, and the
// extra phases the larger ring takes) may add only a constant number of
// allocations, from the handful of vectors that grow geometrically with
// n, not one or more per node.
TEST(AllocationRegressionTest, MstRunAllocationsDoNotGrowWithNodeCount) {
  // Flat programs have no coroutine frames, so frame reuse plays no part
  // here.
  Xoshiro256 rng_small(3), rng_large(3);
  const auto small = MakeRing(256, rng_small);
  const auto large = MakeRing(1024, rng_large);
  for (MstAlgorithm algo :
       {MstAlgorithm::kRandomized, MstAlgorithm::kDeterministic}) {
    SCOPED_TRACE(MstAlgorithmName(algo));
    ComputeMst(small, algo, {.seed = 1});  // warm-up
    const std::uint64_t small_run =
        CountAllocs([&] { ComputeMst(small, algo, {.seed = 1}); });
    const std::uint64_t large_run =
        CountAllocs([&] { ComputeMst(large, algo, {.seed = 1}); });
    EXPECT_LT(large_run, small_run + 64)
        << "n=256: " << small_run << " allocations, n=1024: " << large_run;
  }
}

// Graph set-up's membership tests (SampleDistinct's Floyd loop and the
// builder's distinct-weight, simple-graph and distinct-ID checks) use one
// flat table per call, so generating a graph makes a fixed number of
// allocations plus the edge list's geometric growth — not one or more per
// edge, as node-based hash sets did (+61,444 for the ring pair below and
// +21,292 for the ER pair). The marginal form again: four times the
// nodes may add only a constant number of allocations.
TEST(AllocationRegressionTest, GraphSetUpAllocationsDoNotGrowWithSize) {
  auto ring = [](std::size_t n) {
    Xoshiro256 rng(5);
    return CountAllocs([&] { MakeRing(n, rng); });
  };
  auto er = [](std::size_t n) {
    Xoshiro256 rng(5);
    return CountAllocs(
        [&] { MakeErdosRenyi(n, 8.0 / static_cast<double>(n), rng); });
  };
  auto geometric = [](std::size_t n) {
    Xoshiro256 rng(5);
    const double radius =
        std::sqrt(8.0 / (std::numbers::pi * static_cast<double>(n)));
    return CountAllocs([&] { MakeRandomGeometric(n, radius, rng); });
  };
  ring(64);  // warm-up
  er(64);
  geometric(64);
  const std::uint64_t ring_small = ring(4096);
  const std::uint64_t ring_large = ring(16384);
  EXPECT_LT(ring_large, ring_small + 64)
      << "ring 4096: " << ring_small << " allocations, ring 16384: "
      << ring_large;
  const std::uint64_t er_small = er(512);
  const std::uint64_t er_large = er(2048);
  EXPECT_LT(er_large, er_small + 64)
      << "ER 512: " << er_small << " allocations, ER 2048: " << er_large;
  const std::uint64_t geometric_small = geometric(512);
  const std::uint64_t geometric_large = geometric(2048);
  EXPECT_LT(geometric_large, geometric_small + 64)
      << "geometric 512: " << geometric_small
      << " allocations, geometric 2048: " << geometric_large;
}

}  // namespace
}  // namespace smst
