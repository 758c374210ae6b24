// Micro-benchmarks (google-benchmark): substrate throughput — sequential
// reference MSTs, graph generators, the round engine, and the toolbox
// procedures. These are engineering baselines (how much wall-clock a unit
// of simulation costs), not paper claims.
#include <benchmark/benchmark.h>

#include "alloc_count.h"
#include "smst/graph/generators.h"
#include "smst/graph/mst_reference.h"
#include "smst/mst/randomized_mst.h"
#include "smst/runtime/flat/program.h"
#include "smst/runtime/simulator.h"
#include "smst/sleeping/flat_procedures.h"
#include "smst/sleeping/forest_builder.h"

namespace {

using namespace smst;

void BM_Kruskal(benchmark::State& state) {
  Xoshiro256 rng(1);
  auto g = MakeErdosRenyi(static_cast<std::size_t>(state.range(0)), 0.05, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(KruskalMst(g));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(g.NumEdges()));
}
BENCHMARK(BM_Kruskal)->Arg(256)->Arg(1024);

void BM_Prim(benchmark::State& state) {
  Xoshiro256 rng(1);
  auto g = MakeErdosRenyi(static_cast<std::size_t>(state.range(0)), 0.05, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(PrimMst(g));
  }
}
BENCHMARK(BM_Prim)->Arg(256)->Arg(1024);

void BM_Boruvka(benchmark::State& state) {
  Xoshiro256 rng(1);
  auto g = MakeErdosRenyi(static_cast<std::size_t>(state.range(0)), 0.05, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(BoruvkaMst(g));
  }
}
BENCHMARK(BM_Boruvka)->Arg(256)->Arg(1024);

void BM_GenerateErdosRenyi(benchmark::State& state) {
  Xoshiro256 rng(1);
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(MakeErdosRenyi(n, 8.0 / double(n), rng));
  }
}
BENCHMARK(BM_GenerateErdosRenyi)->Arg(256)->Arg(1024);

Task<void> PingNode(NodeContext& ctx, int rounds) {
  for (int r = 1; r <= rounds; ++r) {
    SendBatch sends;
    for (std::uint32_t p = 0; p < ctx.Degree(); ++p) {
      sends.push_back({p, Message{1, ctx.Id(), 0, 0}});
    }
    co_await ctx.Awake(static_cast<Round>(r), std::move(sends));
  }
}

// Round-engine throughput: every node awake and chattering every round.
// The allocs_per_node_round counter pins the zero-allocation steady
// state as a reported number (0 after the first iteration's warm-up;
// the counter includes that warm-up, so expect ~0, not exactly 0).
void BM_SimulatorDenseRounds(benchmark::State& state) {
  Xoshiro256 rng(1);
  auto g = MakeRing(static_cast<std::size_t>(state.range(0)), rng);
  constexpr int kRounds = 64;
  const std::uint64_t allocs_before = bench::AllocCount();
  for (auto _ : state) {
    Simulator sim(g);
    sim.Run([](NodeContext& ctx) { return PingNode(ctx, kRounds); });
    benchmark::DoNotOptimize(sim.Stats());
  }
  const auto allocs =
      static_cast<double>(bench::AllocCount() - allocs_before);
  const auto node_rounds =
      static_cast<double>(state.iterations() * state.range(0) * kRounds);
  state.counters["allocs_per_node_round"] =
      benchmark::Counter(node_rounds == 0 ? 0.0 : allocs / node_rounds);
  state.SetItemsProcessed(state.iterations() * state.range(0) * kRounds);
}
// 2^18 leaves every per-node structure far outside cache, where the
// fused all-awake sweep's sliding window matters most.
BENCHMARK(BM_SimulatorDenseRounds)->Arg(64)->Arg(512)->Arg(1 << 18);

// Flat twin of BM_SimulatorDenseRounds: the identical every-node-every-
// round chatter, lowered to a FlatProgram. Both run on the one round loop
// — same graph, same rounds, same messages — so the items/s ratio is the
// per-node-round cost of a coroutine resume through the CoroutineProgram
// adapter against a virtual call into a batched state machine.
class FlatPingProgram final : public FlatProgram {
 public:
  FlatPingProgram(const WeightedGraph& g, int rounds)
      : g_(&g), rounds_(rounds) {}

  Round Step(NodeIndex v, Round now, std::span<const InMessage>,
             SendLane& sends) override {
    if (now >= static_cast<Round>(rounds_)) return kFlatDone;
    PushAll(v, sends);
    return now + 1;
  }

 private:
  void PushAll(NodeIndex v, SendLane& sends) const {
    const FlatNodeRef node{g_, v};
    for (std::uint32_t p = 0; p < node.Degree(); ++p) {
      sends.push_back({p, Message{1, node.Id(), 0, 0}});
    }
  }

  const WeightedGraph* g_;
  int rounds_;
};

void BM_SimulatorDenseRoundsFlat(benchmark::State& state) {
  Xoshiro256 rng(1);
  auto g = MakeRing(static_cast<std::size_t>(state.range(0)), rng);
  constexpr int kRounds = 64;
  const std::uint64_t allocs_before = bench::AllocCount();
  for (auto _ : state) {
    Simulator sim(g);
    FlatPingProgram program(g, kRounds);
    sim.Run(program);
    benchmark::DoNotOptimize(sim.Stats());
  }
  const auto allocs =
      static_cast<double>(bench::AllocCount() - allocs_before);
  const auto node_rounds =
      static_cast<double>(state.iterations() * state.range(0) * kRounds);
  state.counters["allocs_per_node_round"] =
      benchmark::Counter(node_rounds == 0 ? 0.0 : allocs / node_rounds);
  state.SetItemsProcessed(state.iterations() * state.range(0) * kRounds);
}
BENCHMARK(BM_SimulatorDenseRoundsFlat)->Arg(64)->Arg(512)->Arg(1 << 18);

// ------------------------------------------------ toolbox procedures
// One path fragment spanning the whole graph: the deepest LDT a fragment
// of n nodes can have, so one procedure block is the full 2n+1 rounds.
// Each bench reports node-rounds/s (n nodes x the simulated rounds per
// run) so the three procedures are comparable to each other and to the
// dense-round engine numbers above.

struct PathForest {
  WeightedGraph g;
  std::vector<LdtState> states;
};

PathForest MakePathForest(std::size_t n) {
  Xoshiro256 rng(1);
  GeneratorOptions opt;
  opt.shuffle_ids = false;
  auto g = MakePath(n, rng, opt);
  std::vector<EdgeIndex> tree;
  for (EdgeIndex e = 0; e < g.NumEdges(); ++e) tree.push_back(e);
  auto states = BuildForest(g, tree, {0});
  return {std::move(g), std::move(states)};
}

void BM_FragmentBroadcast(benchmark::State& state) {
  auto pf = MakePathForest(static_cast<std::size_t>(state.range(0)));
  std::uint64_t rounds = 0;
  for (auto _ : state) {
    ProcedureProgram<FlatBroadcast> program(
        pf.g, [&pf](const FlatNodeRef& node, FlatBroadcast& proc,
                    SendLane& sends) {
          return proc.Begin(node, pf.states[node.v], 1, Message{1, 7, 0, 0},
                            sends);
        });
    Simulator sim(pf.g);
    sim.Run(program);
    rounds = sim.Stats().rounds;
    benchmark::DoNotOptimize(rounds);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) *
                          static_cast<std::int64_t>(rounds));
}
BENCHMARK(BM_FragmentBroadcast)->Arg(256)->Arg(2048);

void BM_UpcastMin(benchmark::State& state) {
  auto pf = MakePathForest(static_cast<std::size_t>(state.range(0)));
  std::uint64_t rounds = 0;
  for (auto _ : state) {
    ProcedureProgram<FlatUpcastMin> program(
        pf.g, [&pf](const FlatNodeRef& node, FlatUpcastMin& proc,
                    SendLane& sends) {
          return proc.Begin(node, pf.states[node.v], 1,
                            UpcastItem{node.Id(), 0, 0}, sends);
        });
    Simulator sim(pf.g);
    sim.Run(program);
    rounds = sim.Stats().rounds;
    benchmark::DoNotOptimize(rounds);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) *
                          static_cast<std::int64_t>(rounds));
}
BENCHMARK(BM_UpcastMin)->Arg(256)->Arg(2048);

// LDT-build is host-side (no simulated rounds): one "node-round" here is
// one node rooted, levelled, and port-linked by the BFS.
void BM_LdtBuild(benchmark::State& state) {
  Xoshiro256 rng(1);
  GeneratorOptions opt;
  opt.shuffle_ids = false;
  auto g = MakePath(static_cast<std::size_t>(state.range(0)), rng, opt);
  std::vector<EdgeIndex> tree;
  for (EdgeIndex e = 0; e < g.NumEdges(); ++e) tree.push_back(e);
  for (auto _ : state) {
    benchmark::DoNotOptimize(BuildForest(g, tree, {0}));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_LdtBuild)->Arg(256)->Arg(2048);

void BM_RandomizedMstEndToEnd(benchmark::State& state) {
  Xoshiro256 rng(1);
  const auto n = static_cast<std::size_t>(state.range(0));
  auto g = MakeErdosRenyi(n, 8.0 / double(n), rng);
  double awake_rounds = 0;
  const std::uint64_t allocs_before = bench::AllocCount();
  for (auto _ : state) {
    auto res = RunRandomizedMst(g, {.seed = 1});
    awake_rounds += static_cast<double>(res.stats.awake_node_rounds);
    benchmark::DoNotOptimize(res);
  }
  const auto allocs =
      static_cast<double>(bench::AllocCount() - allocs_before);
  state.counters["allocs_per_awake_round"] =
      benchmark::Counter(awake_rounds == 0 ? 0.0 : allocs / awake_rounds);
}
BENCHMARK(BM_RandomizedMstEndToEnd)->Arg(128)->Arg(512);

}  // namespace

BENCHMARK_MAIN();
