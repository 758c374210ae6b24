// Sharded multi-worker backend for the sleeping-model simulator.
//
// The node set is partitioned into K shards; each shard worker thread
// owns a Scheduler over that shard's own nodes (lanes, wake queue,
// delayed-message parking, fault session, optional auditor) plus its
// metrics and, for a coroutine program, its CoroutineProgram adapter. A
// round proceeds in barrier-separated phases:
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
// results, metrics, and outcome are bit-identical to the serial engine
// for every shard count. DESIGN.md §12 gives the full argument.
//
// Not supported here: TraceSink (per-sender drop counts are only known
// receiver-side after the barrier; the Simulator rejects trace + shards).
#pragma once

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cstdint>
#include <exception>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "smst/faults/fault_plan.h"
#include "smst/graph/graph.h"
#include "smst/runtime/flat/program.h"
#include "smst/runtime/metrics.h"
#include "smst/runtime/node.h"
#include "smst/runtime/scheduler.h"
#include "smst/runtime/sharded/exchange.h"
#include "smst/runtime/sharded/partition.h"

namespace smst {

class Auditor;

struct ShardedEngineOptions {
  std::uint32_t shards = 2;
  ShardPolicy policy = ShardPolicy::kContiguousBlocks;
  std::uint64_t seed = 1;
  Round max_rounds = std::uint64_t{1} << 62;
  bool record_wake_times = false;
  const FaultPlan* fault_plan = nullptr;
  bool audit = false;  // one Auditor per shard when set
};

class ShardedEngine {
 public:
  ShardedEngine(const WeightedGraph& graph, ShardedEngineOptions options);
  ~ShardedEngine();

  // Runs the program on every node to completion (or abort): exactly one
  // of `coroutine` (run through one CoroutineProgram per shard) and
  // `flat` is non-null. A flat program instance is shared across worker
  // threads — safe because shards own disjoint node sets and flat
  // programs keep all mutable state in per-node slots
  // (runtime/flat/program.h). Shard-level failures (the round watchdog)
  // rethrow here, lowest shard index first; node-program failures,
  // including a rejected wake, stay in the shards' lanes for
  // RethrowFirstNodeFailure. Per-shard metrics and fault counters are
  // merged (in shard order) before any rethrow, so callers observe a
  // consistent aborted state. May be called once.
  void Execute(const NodeProgram* coroutine, FlatProgram* flat);

  // --- post-run views (valid after Execute, even if it threw) ----------
  const Metrics& MergedMetrics() const { return merged_metrics_; }
  // Adds the merged per-shard totals into `target` (the Simulator's
  // metrics object, which node contexts never saw in sharded mode).
  void MergeMetricsInto(Metrics& target) const;
  const FaultStats& InjectedFaults() const { return merged_faults_; }

  std::uint64_t CountUnfinished() const;
  NodeIndex FirstUnfinishedNode() const;  // kInvalidNode if all finished
  // Rethrows the first failed node program in global node-index order.
  void RethrowFirstNodeFailure() const;

  // Merged auditor view (all zero / empty when auditing is off).
  struct AuditTotals {
    bool audited = false;
    std::uint64_t awake_node_rounds = 0;
    std::uint64_t model_drops = 0;
    std::uint64_t violations = 0;
    std::string report;  // concatenated per-shard reports ("" when clean)
  };
  // Runs each shard auditor's CheckAwakeMeter against its own metrics
  // (per-shard books balance: awakes are metered at the owner, model
  // drops at the receiver) and returns the summed totals.
  AuditTotals CheckAndSummarizeAudit();

  const ShardPartition& Partition() const { return partition_; }

 private:
  struct Shard {
    Shard(const WeightedGraph& graph, const ShardedEngineOptions& options,
          const ShardPartition& partition, std::uint32_t s);

    Metrics metrics;                     // full-size; merged by summation
    std::unique_ptr<Auditor> auditor;    // before scheduler: it borrows it
    std::unique_ptr<Scheduler> scheduler;
    // The shard's adapter for a coroutine program (null for a flat one).
    // Built on the worker thread, so the coroutine frames come from that
    // thread's pool arena (frame_pool.h).
    std::unique_ptr<CoroutineProgram> coroutines;
    // Consumer-side scratch, reused every round: one inbound buffer per
    // producer shard, plus the merge cursors over those buffers.
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
  ShardedEngineOptions options_;
  ShardPartition partition_;
  ShardExchange exchange_;
  // Slot s is constructed by worker s itself (ShardMain), not in the
  // engine constructor: the Metrics and Scheduler arrays are then built
  // in parallel and first-touched by their owner thread.
  // Null after Execute only if that shard failed before constructing;
  // its exception is in errors_[s]. The join in Execute orders every
  // slot's write before the main thread's reads.
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::exception_ptr> errors_;  // shard-level failures

  std::vector<Round> next_round_;  // written by shard s before barrier
  Round global_round_ = 0;         // written by the barrier completion
  std::optional<std::barrier<RoundReduce>> barrier_;
  std::atomic<bool> abort_{false};

  Metrics merged_metrics_;
  FaultStats merged_faults_;
  bool ran_ = false;
};

}  // namespace smst
