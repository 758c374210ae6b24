// Simulator: drives one node program per node to completion and collects
// the run's metrics. Deterministic under a fixed seed — including under a
// fault plan, whose adversary stream is derived from (plan salt ^ seed).
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

class Auditor;
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
  TraceSink trace;
  // Borrowed fault plan (null or empty = fault-free run); consulted by
  // the scheduler at delivery and wake-registration time. A rule whose
  // @NODE filter names no node of the graph is rejected by the
  // constructor (std::invalid_argument).
  const FaultPlan* fault_plan = nullptr;
  AuditMode audit = AuditMode::kDefault;
  // Sharded multi-worker backend: 0 = serial engine (default); K >= 1
  // partitions the nodes over K worker threads (clamped to n), each with
  // its own Scheduler, exchanging message batches at round barriers.
  // Results, metrics, and outcomes are bit-identical to the serial
  // engine for every K (DESIGN.md §12). `trace` is serial-only.
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
  // Null unless this run has a serial-engine auditor installed (sharded
  // runs audit per shard; use Audit() for the engine-independent view).
  const Auditor* GetAuditor() const { return auditor_.get(); }
  const FaultStats& InjectedFaults() const;

  // Engine-independent auditor summary: the serial auditor's meters, or
  // the shard auditors' summed meters (audited == false when no auditor
  // ran). Valid after Run/RunToOutcome.
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
  std::uint64_t CountUnfinished() const;
  NodeIndex FirstUnfinishedNode() const;
  void FillAuditSummary(RunOutcome& out) const;

  const WeightedGraph& graph_;
  SimulatorOptions options_;
  Metrics metrics_;
  std::unique_ptr<Auditor> auditor_;  // before scheduler_: it borrows it
  // Exactly one engine exists per Simulator: the serial scheduler, or
  // the sharded multi-worker backend when options.shards >= 1.
  std::unique_ptr<Scheduler> scheduler_;
  std::unique_ptr<ShardedEngine> sharded_;
  // The serial engine's adapter for a coroutine NodeProgram (the sharded
  // engine keeps one per shard).
  std::unique_ptr<CoroutineProgram> coroutines_;
  // Filled by Run/RunToOutcome after a sharded run (the shard auditors'
  // CheckAwakeMeter cross-check runs exactly once, there).
  AuditSummary sharded_audit_;
  bool ran_ = false;
};

}  // namespace smst
