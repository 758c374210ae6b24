// The simulator's engine: runs one program on every node, over K shards.
//
// One shard (SimulatorOptions::shards <= 1, or a partition clamped to one
// shard) is the plain Scheduler: the engine builds one Scheduler over
// every node (identity lanes), plus the coroutine adapter for a coroutine
// program, on the calling thread and runs Scheduler::Run — the fused
// all-awake sweep, the unobserved delivery step and tracing included.
// Such a run has no partition, no second Metrics, no exchange, no worker
// thread and no merge.
//
// With K >= 2 the node set is partitioned into K shards; each shard
// worker thread owns a Scheduler over that shard's own nodes (lanes,
// wake queue, delayed-message parking, fault session, optional auditor)
// plus its metrics and, for a coroutine program, its CoroutineProgram
// adapter. A round proceeds in barrier-separated phases:
//
//   select   every shard publishes its next pending round; the barrier's
//            completion reduces them to the global round R = min
//   stage    each shard pops its round-R wakers (canonical ascending
//            node order), which marks them awake
//   collect  each shard meters its nodes' sends and publishes the
//            *cross-shard* ones (fault verdicts applied sender-side)
//            through the ShardExchange; shard-local sends wait for the
//            delivery scan
//   barrier
//   receive  each shard drains its delayed heap for round R, then runs
//            one scan that steps its local wakers and its remote inbound
//            streams in ascending source order — local senders through
//            the Scheduler's own delivery step, remote entries to awake
//            targets (charging model drops receiver-side)
//   step     each shard runs the Scheduler's step sweep over its wakers
//
// Determinism: round staging order is canonical, fault verdicts are pure
// hashes of event coordinates, per-shard metrics/fault counters merge by
// commutative sums (maxima for round/bit peaks) in fixed shard order,
// and the delayed heap orders by the canonical message key — so a run's
// results, metrics, and outcome are bit-identical to the one-shard run
// for every shard count. DESIGN.md §12 gives the full argument.
//
// Not supported with K >= 2: TraceSink (per-sender drop counts are only
// known receiver-side after the barrier; the constructor rejects it).
#pragma once

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cstdint>
#include <exception>
#include <memory>
#include <optional>
#include <vector>

#include "smst/faults/fault_plan.h"
#include "smst/graph/graph.h"
#include "smst/runtime/flat/program.h"
#include "smst/runtime/metrics.h"
#include "smst/runtime/node.h"
#include "smst/runtime/scheduler.h"
#include "smst/runtime/sharded/exchange.h"
#include "smst/runtime/sharded/partition.h"
#include "smst/runtime/simulator.h"

namespace smst {

class Auditor;

class ShardedEngine {
 public:
  // Meters the run into `metrics` (the Simulator's, which must outlive
  // the engine). Throws std::invalid_argument for a trace sink on K >= 2
  // shards.
  ShardedEngine(const WeightedGraph& graph, Metrics& metrics,
                const SimulatorOptions& options);

  // Runs the program on every node to completion (or abort): exactly one
  // of `coroutine` (run through one CoroutineProgram per shard) and
  // `flat` is non-null. A flat program instance is shared across worker
  // threads — safe because shards own disjoint node sets and flat
  // programs keep all mutable state in per-node slots
  // (runtime/flat/program.h). Run-level failures (the round watchdog)
  // rethrow here, lowest shard index first; node-program failures,
  // including a rejected wake, stay in the shards' lanes for
  // RethrowFirstNodeFailure. The run's metrics are complete before any
  // rethrow, so callers observe a consistent aborted state. May be
  // called once.
  void Execute(const NodeProgram* coroutine, FlatProgram* flat);

  // --- post-run views (valid after Execute, even if it threw) ----------
  FaultStats InjectedFaults() const;  // summed over shards
  std::uint64_t CountUnfinished() const;
  NodeIndex FirstUnfinishedNode() const;  // kInvalidNode if all finished
  // Rethrows the first failed node program in global node-index order.
  void RethrowFirstNodeFailure() const;
  // Runs each shard auditor's CheckAwakeMeter against its shard's
  // metrics (per-shard books balance: awakes are metered at the owner,
  // model drops at the receiver). Call once, after the run.
  void CheckAwakeMeters();
  // The shard auditors' summed meters and concatenated reports
  // (audited == false when auditing is off).
  Simulator::AuditSummary Audit() const;

 private:
  struct Shard {
    // `run_metrics` is the run's Metrics for the one shard of a
    // one-shard run, null for a shard of K >= 2.
    Shard(const WeightedGraph& graph, Metrics* run_metrics,
          const SimulatorOptions& options, const ShardPartition* partition,
          std::uint32_t s);

    // K >= 2: this shard's own full-size meters, merged into the run's
    // after the run. Null on a one-shard run.
    std::unique_ptr<Metrics> own_metrics;
    Metrics& metrics;                    // *own_metrics, or the run's
    std::unique_ptr<Auditor> auditor;    // before scheduler: it borrows it
    std::unique_ptr<Scheduler> scheduler;
    // The shard's adapter for a coroutine program (null for a flat one).
    // Built, run and destroyed on the thread that runs the shard (with
    // K >= 2, destroyed as ShardMain ends), so its coroutine frames
    // never leave that thread's free lists (frame_pool.cpp).
    std::unique_ptr<CoroutineProgram> coroutines;
    // K >= 2 only. Consumer-side scratch, reused every round: one inbound
    // buffer per producer shard (swapped with the exchange's pair
    // buffer), plus the merge cursors over those buffers.
    std::vector<std::vector<WireEntry>> inbound;
    std::vector<std::size_t> merge_pos;
    // cross_ports[v] != 0 iff local node v has at least one neighbor
    // owned by another shard. CollectSends skips a waker's whole batch
    // on this bit, so the pre-barrier sweep touches only boundary
    // nodes — on a block-partitioned ring that is ~2 nodes per shard
    // instead of all of them. Indexed by global node; only local
    // entries are ever written or read.
    std::vector<std::uint8_t> cross_ports;
  };

  // The program `shard` runs: `flat`, or a new coroutine adapter for
  // `coroutine` over the shard's nodes.
  FlatProgram& ProgramOf(Shard& shard, std::uint32_t s,
                         const NodeProgram* coroutine, FlatProgram* flat);
  void ShardMain(std::uint32_t s, const NodeProgram* coroutine,
                 FlatProgram* flat);
  void CollectSends(std::uint32_t s, Round r);
  void Receive(std::uint32_t s, Round r);

  // Barrier completion: reduce the published per-shard next rounds to
  // the global round. Runs exactly once per barrier phase, on the last
  // arriving thread; the barrier sequences it against all shard reads.
  struct RoundReduce {
    ShardedEngine* engine;
    void operator()() noexcept {
      Round m = kMaxRound;
      for (Round r : engine->next_round_) m = std::min(m, r);
      engine->global_round_ = m;
    }
  };

  const WeightedGraph& graph_;
  Metrics& metrics_;
  SimulatorOptions options_;
  // Both engaged iff K >= 2.
  std::optional<ShardPartition> partition_;
  std::optional<ShardExchange> exchange_;
  // One slot per shard. A one-shard run builds its shard in the
  // constructor; with K >= 2, slot s is constructed by worker s itself
  // (ShardMain), so the Metrics and Scheduler arrays are built in
  // parallel and first-touched by their owner thread. Null after Execute
  // only if that shard failed before constructing; its exception is in
  // errors_[s]. The join in Execute orders every slot's write before the
  // main thread's reads.
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::exception_ptr> errors_;  // K >= 2 run-level failures

  std::vector<Round> next_round_;  // written by shard s before barrier
  Round global_round_ = 0;         // written by the barrier completion
  std::optional<std::barrier<RoundReduce>> barrier_;
  std::atomic<bool> abort_{false};
};

}  // namespace smst
