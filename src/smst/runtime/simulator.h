// Simulator: drives one node program per node to completion and collects
// the run's metrics. Deterministic under a fixed seed — including under a
// fault plan, whose adversary stream is derived from (plan salt ^ seed).
//
// Every run takes one path: the Simulator holds one ShardedEngine
// (runtime/sharded/engine.h), which with one shard is the Scheduler's own
// round loop on the calling thread and with K >= 2 shards runs that loop's
// phases on K worker threads. Results are the same either way.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "smst/faults/fault_plan.h"
#include "smst/faults/run_outcome.h"
#include "smst/graph/graph.h"
#include "smst/runtime/flat/program.h"
#include "smst/runtime/metrics.h"
#include "smst/runtime/node.h"
#include "smst/runtime/scheduler.h"
#include "smst/runtime/sharded/partition.h"

namespace smst {

class ShardedEngine;

// Whether this run gets a runtime invariant auditor (see faults/auditor.h).
// kDefault = on in builds configured with SMST_AUDIT (all Debug builds),
// off otherwise; kOn/kOff force it.
enum class AuditMode : std::uint8_t { kDefault, kOn, kOff };

struct SimulatorOptions {
  std::uint64_t seed = 1;
  // Watchdog: abort if the round clock passes this (runaway algorithms).
  Round max_rounds = std::uint64_t{1} << 62;
  // Record every node's awake round numbers (lower-bound experiments).
  bool record_wake_times = false;
  // Optional per-(node, awake round) event sink; see runtime/trace.h.
  // One-shard runs only: the constructor rejects it with shards >= 2.
  TraceSink trace;
  // Borrowed fault plan (null or empty = fault-free run); consulted by
  // the scheduler at delivery and wake-registration time. A rule whose
  // @NODE filter names no node of the graph is rejected by the
  // constructor (std::invalid_argument).
  const FaultPlan* fault_plan = nullptr;
  AuditMode audit = AuditMode::kDefault;
  // Shards: <= 1 (default) runs one shard on the calling thread; K >= 2
  // partitions the nodes over K worker threads (clamped to n), each with
  // its own Scheduler, exchanging message batches at round barriers.
  // Results, metrics, and outcomes are bit-identical for every K
  // (DESIGN.md §12).
  std::uint32_t shards = 0;
  ShardPolicy shard_policy = ShardPolicy::kContiguousBlocks;
};

class Simulator {
 public:
  Simulator(const WeightedGraph& graph, SimulatorOptions options = {});
  ~Simulator();

  // Starts `program` on every node and runs rounds until all programs
  // finish. Rethrows the first node failure, throws if any node never
  // finished, and (when an auditor is installed) throws on any audit
  // violation — the historical all-or-nothing contract for fault-free
  // runs. May be called once per Simulator.
  void Run(const NodeProgram& program);

  // Bounded-run variant for faulted executions: instead of throwing,
  // classifies what happened into a RunOutcome (completed /
  // non-termination / crashed-partition; callers that can verify the
  // result refine kCompleted into kWrongResult). std::logic_error —
  // programming bugs, not fault effects — still propagates. May be called
  // once per Simulator, instead of Run.
  RunOutcome RunToOutcome(const NodeProgram& program);

  // The same for a flat state-machine program. The caller owns `program`
  // (one instance holds every node's state).
  void Run(FlatProgram& program);
  RunOutcome RunToOutcome(FlatProgram& program);

  const Metrics& GetMetrics() const { return metrics_; }
  RunStats Stats() const { return metrics_.Summarize(); }
  FaultStats InjectedFaults() const;

  // The auditors' summed meters, one auditor per shard (audited == false
  // when no auditor ran). Valid after Run/RunToOutcome.
  struct AuditSummary {
    bool audited = false;
    std::uint64_t awake_node_rounds = 0;
    std::uint64_t model_drops = 0;
    std::uint64_t violations = 0;
    std::string report;  // "" when clean
  };
  AuditSummary Audit() const;

 private:
  // Shared body of Run/RunToOutcome: run the program (a coroutine
  // NodeProgram through its CoroutineProgram adapter) until idle, then
  // rethrow the first failed node program.
  void Execute(const NodeProgram* coroutine, FlatProgram* flat);
  void FinishRun();
  RunOutcome FinishOutcome(RunOutcome out);
  // Classifies the in-flight exception into `out` (rethrows logic_error).
  static void ClassifyFailure(RunOutcome& out);

  Metrics metrics_;
  std::unique_ptr<ShardedEngine> engine_;  // after metrics_: it meters them
  bool ran_ = false;
};

}  // namespace smst
