// WakeQueue (runtime/wake_queue.h): the radix wake queue of the
// Scheduler's round loop. The main test is a seeded differential
// run against a std::map<Round, std::set<NodeIndex>> reference over
// random monotone push/pop sequences; the named cases pin the shapes the
// round loop depends on.
//
// This binary replaces global operator new/delete with counting versions
// (test-only) for the no-allocation case.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <new>
#include <set>
#include <vector>

#include "smst/runtime/scheduler.h"
#include "smst/runtime/wake_queue.h"
#include "smst/util/prng.h"

namespace {

thread_local std::uint64_t t_alloc_count = 0;

}  // namespace

// Kept out of line: once one side inlines into a caller, GCC's
// -Wmismatched-new-delete pairs malloc with operator delete (or operator
// new with free) and warns.
[[gnu::noinline]] void* operator new(std::size_t n) {
  ++t_alloc_count;
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace smst {
namespace {

using Nodes = std::vector<NodeIndex>;

Nodes Pop(WakeQueue& q, Round r) {
  Nodes out;
  q.PopRound(r, out);
  return out;
}

// ------------------------------------------------------- differential --

// One seeded run: every step stages the next round (or, one time in
// eight, a smaller round with no wakers, as the sharded reducer does),
// checks the popped set against the reference, then re-registers most
// popped nodes and a few idle ones at random gaps: the next few rounds
// (often ones already queued), up to `max_gap`, or far beyond it.
void RunDifferential(std::uint64_t seed, NodeIndex n, Round max_gap,
                     int steps) {
  SCOPED_TRACE(testing::Message() << "seed=" << seed << " n=" << n
                                  << " max_gap=" << max_gap);
  Xoshiro256 rng(seed);
  WakeQueue q(n);
  std::map<Round, std::set<NodeIndex>> ref;
  std::vector<Round> pending(n, 0);  // 0 = not queued in the reference
  Round clock = 0;

  const auto gap = [&]() -> Round {
    switch (rng.NextBelow(4)) {
      case 0: return 1 + rng.NextBelow(4);
      case 1: return 1 + rng.NextBelow(max_gap);
      case 2: return max_gap + rng.NextBelow(max_gap);
      default: return 1 + rng.NextBelow(std::uint64_t{1} << 40);
    }
  };
  const auto push = [&](NodeIndex v) {
    const Round r = clock + gap();
    q.Push(v, r);
    ref[r].insert(v);
    pending[v] = r;
  };
  const auto push_idle = [&](int count) {
    for (int i = 0; i < count; ++i) {
      const auto v = static_cast<NodeIndex>(rng.NextBelow(n));
      if (pending[v] == 0) push(v);
    }
  };

  push_idle(static_cast<int>(n));
  for (int step = 0; step < steps; ++step) {
    const Round expected_next = ref.empty() ? kMaxRound : ref.begin()->first;
    ASSERT_EQ(q.NextRound(), expected_next) << "step " << step;
    ASSERT_EQ(q.Empty(), ref.empty());
    if (ref.empty()) {
      push_idle(4);
      continue;
    }
    Round r = expected_next;
    if (rng.NextBelow(8) == 0 && expected_next - clock > 1) {
      r = clock + 1 + rng.NextBelow(expected_next - clock - 1);
    }
    Nodes popped = Pop(q, r);
    Nodes expected;
    if (r == expected_next) {
      expected.assign(ref.begin()->second.begin(), ref.begin()->second.end());
      ref.erase(ref.begin());
    }
    ASSERT_EQ(popped, expected) << "step " << step << " round " << r;
    clock = r;
    for (const NodeIndex v : popped) {
      pending[v] = 0;
      ASSERT_EQ(q.RoundOf(v), r);
      ASSERT_FALSE(q.Pending(v));
    }
    // Re-register in a shuffled order half the time, so rounds fill
    // from unsorted registrations too.
    if (rng.NextBelow(2) == 0) {
      for (std::size_t i = popped.size(); i > 1; --i) {
        std::swap(popped[i - 1], popped[rng.NextBelow(i)]);
      }
    }
    for (const NodeIndex v : popped) {
      if (rng.NextBelow(4) != 0) push(v);
    }
    push_idle(2);
    for (int i = 0; i < 4; ++i) {
      const auto v = static_cast<NodeIndex>(rng.NextBelow(n));
      ASSERT_EQ(q.Pending(v), pending[v] != 0) << "node " << v;
      if (pending[v] != 0) {
        ASSERT_EQ(q.RoundOf(v), pending[v]);
      }
    }
  }
}

TEST(WakeQueueTest, MatchesOrderedMapReferenceOnRandomSequences) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    RunDifferential(seed, /*n=*/1 + static_cast<NodeIndex>(seed * 37 % 300),
                    /*max_gap=*/Round{1} << (seed % 13), /*steps=*/3000);
  }
}

TEST(WakeQueueTest, MatchesReferenceWithFewNodesAndDenseRounds) {
  for (std::uint64_t seed = 100; seed < 104; ++seed) {
    RunDifferential(seed, /*n=*/4, /*max_gap=*/2, /*steps=*/5000);
  }
}

// ------------------------------------------------------- named cases --

TEST(WakeQueueTest, RoundFilledFromSeveralEarlierRoundsPopsAscending) {
  WakeQueue q(8);
  // Registered before round 1, partly descending.
  q.Push(5, 10);
  q.Push(3, 10);
  q.Push(7, 2);
  EXPECT_EQ(Pop(q, 2), (Nodes{7}));
  // Registered in round 2, again out of order, plus an earlier round.
  q.Push(7, 10);
  q.Push(0, 4);
  q.Push(6, 10);
  EXPECT_EQ(Pop(q, 4), (Nodes{0}));
  // Registered in round 4.
  q.Push(1, 10);
  q.Push(0, 10);
  EXPECT_EQ(q.NextRound(), 10u);
  EXPECT_EQ(Pop(q, 10), (Nodes{0, 1, 3, 5, 6, 7}));
  EXPECT_TRUE(q.Empty());
}

// The number of ascending runs in `nodes`.
std::size_t CountRuns(const Nodes& nodes) {
  std::size_t runs = nodes.empty() ? 0 : 1;
  for (std::size_t i = 1; i < nodes.size(); ++i) {
    runs += nodes[i] < nodes[i - 1];
  }
  return runs;
}

TEST(WakeQueueTest, RoundFilledFromManyEarlierRoundsMergesEveryRun) {
  // Group i, the nodes v with v % 37 == i, wakes in round 1 + i and
  // registers its first two nodes for round 100 and its last two for
  // round 101 (groups 0-4) or 102 (the rest), in ascending order. A
  // bucket keeps registration order, so round 100 pops as 37 runs (6
  // merge passes, with an odd trailing run in passes 1, 2, 4 and 5),
  // round 101 as 5 runs and round 102 as 32: odd pass counts, whose
  // result is copied back from the scratch buffer.
  constexpr NodeIndex kGroups = 37;
  constexpr NodeIndex kN = 4 * kGroups;
  WakeQueue q(kN);
  for (NodeIndex v = 0; v < kN; ++v) q.Push(v, 1 + v % kGroups);
  std::map<Round, Nodes> registered;
  for (NodeIndex i = 0; i < kGroups; ++i) {
    const Nodes group = Pop(q, 1 + i);
    ASSERT_EQ(group, (Nodes{i, i + kGroups, i + 2 * kGroups, i + 3 * kGroups}));
    for (std::size_t j = 0; j < group.size(); ++j) {
      const Round r = j < 2 ? 100 : i < 5 ? 101 : 102;
      q.Push(group[j], r);
      registered[r].push_back(group[j]);
    }
  }
  EXPECT_EQ(CountRuns(registered[100]), 37u);
  EXPECT_EQ(CountRuns(registered[101]), 5u);
  EXPECT_EQ(CountRuns(registered[102]), 32u);
  for (auto& [round, nodes] : registered) {
    std::sort(nodes.begin(), nodes.end());
    ASSERT_EQ(q.NextRound(), round);
    EXPECT_EQ(Pop(q, round), nodes) << "round " << round;
  }
  EXPECT_TRUE(q.Empty());
}

TEST(WakeQueueTest, FullRoundFromScrambledRegistrationsPopsEveryNode) {
  // Every node registers for round 20 from one of five earlier rounds,
  // each in a scrambled order.
  constexpr NodeIndex kN = 96;
  WakeQueue q(kN);
  Xoshiro256 rng(11);
  for (NodeIndex v = 0; v < kN; ++v) q.Push(v, 1 + (v * 7 + 3) % 5);
  for (Round r = 1; r <= 5; ++r) {
    Nodes popped = Pop(q, r);
    for (std::size_t i = popped.size(); i > 1; --i) {
      std::swap(popped[i - 1], popped[rng.NextBelow(i)]);
    }
    for (const NodeIndex v : popped) q.Push(v, 20);
  }
  Nodes all(kN);
  for (NodeIndex v = 0; v < kN; ++v) all[v] = v;
  EXPECT_EQ(q.NextRound(), 20u);
  EXPECT_EQ(Pop(q, 20), all);
  EXPECT_TRUE(q.Empty());
  EXPECT_EQ(q.NextRound(), kMaxRound);
}

TEST(WakeQueueTest, GapsOfManyScheduleBlocks) {
  // Transmission-Schedule blocks of 2n + 1 rounds at n = 1024; wakes
  // scattered up to a million blocks ahead, registered descending.
  constexpr NodeIndex kN = 64;
  constexpr Round kBlock = 2 * 1024 + 1;
  WakeQueue q(kN);
  std::map<Round, Nodes> expected;
  for (NodeIndex v = kN; v-- > 0;) {
    const Round r = 1 + (Round{v % 16} * 62'501 + 1) * kBlock + v % 3;
    q.Push(v, r);
    expected[r].push_back(v);
  }
  for (auto& [round, nodes] : expected) {
    std::sort(nodes.begin(), nodes.end());
    ASSERT_EQ(q.NextRound(), round);
    EXPECT_EQ(Pop(q, round), nodes) << "round " << round;
  }
  EXPECT_TRUE(q.Empty());
  EXPECT_EQ(q.NextRound(), kMaxRound);
}

TEST(WakeQueueTest, RoundsAtAndJustBelowTheWatchdog) {
  const Round watchdog = SchedulerOptions{}.max_rounds;
  ASSERT_EQ(watchdog, Round{1} << 62);
  WakeQueue q(4);
  q.Push(0, watchdog);
  q.Push(1, watchdog - 1);
  q.Push(2, 1);
  EXPECT_EQ(Pop(q, 1), (Nodes{2}));
  q.Push(2, watchdog - 2);
  EXPECT_EQ(Pop(q, watchdog - 2), (Nodes{2}));
  q.Push(3, watchdog);  // joins a round registered from round 0
  EXPECT_EQ(Pop(q, watchdog - 1), (Nodes{1}));
  q.Push(1, watchdog + 1);  // past the watchdog: the loop's check trips
  EXPECT_EQ(Pop(q, watchdog), (Nodes{0, 3}));
  EXPECT_EQ(q.NextRound(), watchdog + 1);
}

TEST(WakeQueueTest, ShardedReducerStagesASmallerRoundThenPushes) {
  // A shard publishes its next round, the barrier picks a smaller global
  // round in which the shard has no waker, and a later push lands
  // between the two. Nothing may be lost or reordered.
  WakeQueue q(6);
  q.Push(4, 100);
  q.Push(5, 300);
  EXPECT_EQ(q.NextRound(), 100u);
  EXPECT_TRUE(Pop(q, 50).empty());
  EXPECT_TRUE(q.Pending(4));
  EXPECT_EQ(q.NextRound(), 100u);
  q.Push(2, 60);
  EXPECT_EQ(q.NextRound(), 60u);
  EXPECT_TRUE(Pop(q, 55).empty());
  EXPECT_EQ(Pop(q, 60), (Nodes{2}));
  q.Push(2, 100);
  q.Push(1, 200);
  EXPECT_EQ(Pop(q, 100), (Nodes{2, 4}));
  EXPECT_TRUE(Pop(q, 150).empty());
  EXPECT_EQ(Pop(q, 200), (Nodes{1}));
  EXPECT_EQ(Pop(q, 300), (Nodes{5}));
  EXPECT_TRUE(q.Empty());

  // An empty staged round must not become the radix reference: relative
  // to 2, round 3 belongs in a lower bucket than the one node 0 waits
  // in, and the round would pop in two halves.
  WakeQueue small(3);
  small.Push(0, 3);
  small.Push(1, 8);
  EXPECT_TRUE(Pop(small, 2).empty());
  small.Push(2, 3);
  EXPECT_EQ(Pop(small, 3), (Nodes{0, 2}));
  EXPECT_EQ(Pop(small, 8), (Nodes{1}));
}

TEST(WakeQueueTest, NoAllocationAfterConstruction) {
  // Every popped round re-registers in shuffled order, so later rounds
  // merge several runs; the first rounds fill a round of all nodes. A
  // bucket keeps registration order, so a round's runs before the merge
  // are those of its nodes ordered by push sequence number.
  constexpr NodeIndex kN = 512;
  WakeQueue q(kN);
  Nodes out, order;
  out.reserve(kN);
  order.reserve(kN);
  std::vector<std::uint64_t> seq(kN);
  std::uint64_t pushes = 0;
  Xoshiro256 rng(5);
  const auto push = [&](NodeIndex v, Round r) {
    q.Push(v, r);
    seq[v] = pushes++;
  };
  const auto shuffle = [&] {
    for (std::size_t i = out.size(); i > 1; --i) {
      std::swap(out[i - 1], out[rng.NextBelow(i)]);
    }
  };

  const std::uint64_t before = t_alloc_count;
  for (NodeIndex v = 0; v < kN; ++v) push(v, 1 + v % 4);
  for (Round r = 1; r <= 4; ++r) {
    q.PopRound(r, out);
    shuffle();
    for (const NodeIndex v : out) push(v, 5);
  }
  q.PopRound(5, out);
  const std::size_t full_round = out.size();
  std::uint64_t popped = 0;
  std::uint64_t unsorted_rounds =
      std::is_sorted(out.begin(), out.end()) ? 0 : 1;
  std::uint64_t multi_run_rounds = 0;
  std::size_t max_runs = 0;
  for (const NodeIndex v : out) push(v, 6 + rng.NextBelow(3 * kN));
  for (int step = 0; step < 200'000 && !q.Empty(); ++step) {
    const Round r = q.NextRound();
    q.PopRound(r, out);
    popped += out.size();
    if (!std::is_sorted(out.begin(), out.end())) ++unsorted_rounds;
    order.assign(out.begin(), out.end());
    std::sort(order.begin(), order.end(),
              [&](NodeIndex a, NodeIndex b) { return seq[a] < seq[b]; });
    const std::size_t runs = CountRuns(order);
    if (runs > 1) ++multi_run_rounds;
    max_runs = std::max(max_runs, runs);
    shuffle();
    for (const NodeIndex v : out) push(v, r + 1 + rng.NextBelow(3 * kN));
  }
  const std::uint64_t allocs = t_alloc_count - before;
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(full_round, kN);
  EXPECT_EQ(unsorted_rounds, 0u);
  EXPECT_GT(popped, 100'000u);
  EXPECT_GT(multi_run_rounds, 10'000u);
  EXPECT_GE(max_runs, 3u);
}

}  // namespace
}  // namespace smst
