// Round-loop throughput curve (google-benchmark): coroutine versus flat
// node programs on the one round loop, serial and sharded, on identical
// work. Committed curve: bench/baselines/BENCH_flat.json (recorded when
// each program kind still had its own loop; see the baselines README).
//
// Two workload families:
//  * Dense rounds — every node awake and chattering on every port every
//    round (the round engine's worst case, same as bench_sharded). Both
//    program kinds take the scheduler's fused all-awake sweep, so the
//    pair isolates the per-node-round cost of a coroutine resume through
//    the CoroutineProgram adapter against one virtual Step() into a flat
//    program.
//  * MST end to end — Randomized-MST and Deterministic-MST, whose only
//    implementation is a flat program (src/smst/mst/*_mst.cpp), serial and
//    on 2 shards: the paper's real sleeping-model workload, where most
//    node-rounds are spent asleep.
//
// Variant axis (arg 1): 0 = coroutine program, serial (dense rows only);
// 1 = flat program, serial; 2 = flat program on 2 shards. Results are
// bit-identical across all three (pinned by tests/mst_golden_test.cpp
// and tests/program_kinds_test.cpp); this bench records the cost.
#include <benchmark/benchmark.h>

#include <cstdint>

#include "smst/graph/generators.h"
#include "smst/mst/deterministic_mst.h"
#include "smst/mst/randomized_mst.h"
#include "smst/runtime/flat/program.h"
#include "smst/runtime/simulator.h"

namespace {

using namespace smst;

constexpr int kRounds = 32;

// arg1 encoding shared by every benchmark in this file.
enum Variant : std::int64_t {
  kCoroutineSerial = 0,
  kFlatSerial = 1,
  kFlatSharded2 = 2,
};

Task<void> ChatterNode(NodeContext& ctx) {
  for (int r = 1; r <= kRounds; ++r) {
    SendBatch sends;
    for (std::uint32_t p = 0; p < ctx.Degree(); ++p) {
      sends.push_back({p, Message{1, ctx.Id(), 0, 0}});
    }
    co_await ctx.Awake(static_cast<Round>(r), std::move(sends));
  }
}

class FlatChatterProgram final : public FlatProgram {
 public:
  explicit FlatChatterProgram(const WeightedGraph& g) : g_(&g) {}

  Round Step(NodeIndex v, Round now, std::span<const InMessage>,
             SendLane& sends) override {
    if (now >= static_cast<Round>(kRounds)) return kFlatDone;
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
};

SimulatorOptions OptionsFor(std::int64_t axis) {
  SimulatorOptions opt;
  // Throughput numbers are for the production configuration; the auditor
  // is O(messages) bookkeeping on top.
  opt.audit = AuditMode::kOff;
  if (axis == kFlatSharded2) opt.shards = 2;
  return opt;
}

void RunDense(benchmark::State& state, const WeightedGraph& g,
              std::int64_t axis) {
  std::uint64_t messages = 0;
  for (auto _ : state) {
    Simulator sim(g, OptionsFor(axis));
    if (axis == kCoroutineSerial) {
      sim.Run(ChatterNode);
    } else {
      FlatChatterProgram program(g);
      sim.Run(program);
    }
    messages = sim.Stats().total_messages;
    benchmark::DoNotOptimize(messages);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(g.NumNodes()) * kRounds);
  state.counters["messages"] =
      benchmark::Counter(static_cast<double>(messages));
  state.counters["engine_axis"] =
      benchmark::Counter(static_cast<double>(axis));
}

// ---------------------------------------------------- dense rounds: ring

void BM_DenseRing(benchmark::State& state) {
  Xoshiro256 rng(1);
  const auto g = MakeRing(static_cast<std::size_t>(state.range(0)), rng);
  RunDense(state, g, state.range(1));
}
BENCHMARK(BM_DenseRing)
    ->Args({1 << 12, kCoroutineSerial})
    ->Args({1 << 12, kFlatSerial})
    ->Args({1 << 12, kFlatSharded2})
    ->Args({1 << 15, kCoroutineSerial})
    ->Args({1 << 15, kFlatSerial})
    ->Args({1 << 15, kFlatSharded2})
    ->Args({1 << 18, kCoroutineSerial})
    ->Args({1 << 18, kFlatSerial})
    ->Args({1 << 18, kFlatSharded2})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------- dense rounds: Erdos-Renyi deg~8

void BM_DenseErdosRenyi(benchmark::State& state) {
  Xoshiro256 rng(2);
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto g = MakeErdosRenyi(n, 8.0 / static_cast<double>(n), rng);
  RunDense(state, g, state.range(1));
}
BENCHMARK(BM_DenseErdosRenyi)
    ->Args({1 << 14, kCoroutineSerial})
    ->Args({1 << 14, kFlatSerial})
    ->Args({1 << 14, kFlatSharded2})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// ----------------------------------------------------- MST end to end

void RunMst(benchmark::State& state, bool deterministic) {
  Xoshiro256 rng(3);
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto g = MakeErdosRenyi(n, 8.0 / static_cast<double>(n), rng);
  const std::int64_t axis = state.range(1);
  MstOptions opt;
  opt.seed = 1;
  if (axis == kFlatSharded2) opt.shards = 2;
  std::uint64_t awake = 0;
  std::uint64_t rounds = 0;
  for (auto _ : state) {
    auto res = deterministic ? RunDeterministicMst(g, opt)
                             : RunRandomizedMst(g, opt);
    awake = res.stats.awake_node_rounds;
    rounds = res.stats.rounds;
    benchmark::DoNotOptimize(res);
  }
  // node-rounds/s over the full simulated run (sleeping rounds included:
  // the engine still sweeps them); awake_node_rounds is reported alongside
  // so the sleeping ratio is visible in the JSON.
  state.SetItemsProcessed(state.iterations() * state.range(0) *
                          static_cast<std::int64_t>(rounds));
  state.counters["awake_node_rounds"] =
      benchmark::Counter(static_cast<double>(awake));
  state.counters["engine_axis"] =
      benchmark::Counter(static_cast<double>(axis));
}

void BM_RandomizedMst(benchmark::State& state) { RunMst(state, false); }
BENCHMARK(BM_RandomizedMst)
    ->Args({256, kFlatSerial})
    ->Args({256, kFlatSharded2})
    ->Args({1024, kFlatSerial})
    ->Args({1024, kFlatSharded2})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_DeterministicMst(benchmark::State& state) { RunMst(state, true); }
BENCHMARK(BM_DeterministicMst)
    ->Args({256, kFlatSerial})
    ->Args({256, kFlatSharded2})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
