// Simulator: drives one node program per node to completion and collects
// the run's metrics. Deterministic under a fixed seed — including under a
// fault plan, whose adversary stream is derived from (plan salt ^ seed).
//
// Every run takes one path over K shards, each a Scheduler over its own
// nodes. One shard is the Scheduler's own round loop on the calling
// thread; with K >= 2 shards the Simulator runs that loop's phases on K
// worker threads (runtime/sharded/rounds.cpp). Results are the same
// either way.
#pragma once

#include <atomic>
#include <barrier>
#include <cstdint>
#include <exception>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "smst/faults/fault_plan.h"
#include "smst/faults/run_outcome.h"
#include "smst/graph/graph.h"
#include "smst/runtime/flat/program.h"
#include "smst/runtime/metrics.h"
#include "smst/runtime/node.h"
#include "smst/runtime/scheduler.h"
#include "smst/runtime/sharded/exchange.h"
#include "smst/runtime/sharded/partition.h"

namespace smst {

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
  // programming bugs, not fault effects — still propagates, and so do
  // std::system_error from a worker thread that could not start and
  // std::bad_alloc (the host, not the run). May be called once per
  // Simulator, instead of Run.
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
  };

  // Barrier completion: reduce the published per-shard next rounds to
  // the global round. Runs exactly once per barrier phase, on the last
  // arriving thread; the barrier sequences it against all shard reads.
  struct RoundReduce {
    Simulator* sim;
    void operator()() noexcept;
  };

  // Shared body of Run/RunToOutcome: runs the program on every node to
  // completion (or abort) — exactly one of `coroutine` (through one
  // CoroutineProgram per shard) and `flat` is non-null — then rethrows
  // the first failed node program in node-index order. A flat program
  // instance is shared across worker threads: shards own disjoint node
  // sets and flat programs keep all mutable state in per-node slots
  // (runtime/flat/program.h). Run-level failures (the round watchdog)
  // rethrow lowest shard first; metrics_ is complete before any rethrow.
  void Execute(const NodeProgram* coroutine, FlatProgram* flat);
  // The program `shard` runs: `flat`, or a new coroutine adapter for
  // `coroutine` over the shard's nodes.
  FlatProgram& ProgramOf(Shard& shard, std::uint32_t s,
                         const NodeProgram* coroutine, FlatProgram* flat);
  // The K >= 2 phases, each run by shard s's worker thread
  // (runtime/sharded/rounds.cpp).
  void ShardMain(std::uint32_t s, const NodeProgram* coroutine,
                 FlatProgram* flat);
  void CollectSends(std::uint32_t s, Round r);
  void Receive(std::uint32_t s, Round r);

  void FinishRun();
  RunOutcome FinishOutcome(RunOutcome out);
  // Runs each shard auditor's CheckAwakeMeter against its shard's
  // metrics (per-shard books balance: awakes are metered at the owner,
  // model drops at the receiver), then returns Audit(). Once per run.
  AuditSummary CheckAudit();
  // Classifies the in-flight exception into `out` (rethrows logic_error,
  // system_error and bad_alloc).
  static void ClassifyFailure(RunOutcome& out);

  const WeightedGraph& graph_;
  SimulatorOptions options_;
  Metrics metrics_;
  // Both engaged iff K >= 2.
  std::optional<ShardPartition> partition_;
  std::optional<ShardExchange> exchange_;
  // One slot per shard. A one-shard run builds its shard in the
  // constructor; with K >= 2, slot s is constructed by worker s itself
  // (ShardMain), so the Metrics and Scheduler arrays are built in
  // parallel and first-touched by their owner thread. Null after the run
  // only if that shard failed before constructing; its exception is in
  // errors_[s]. The join in Execute orders every slot's write before the
  // main thread's reads.
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::exception_ptr> errors_;  // K >= 2 run-level failures

  // K >= 2 only, one byte per node: boundary_[v] != 0 iff v has a
  // neighbor owned by another shard. CollectSends skips a waker's whole
  // lane on this byte, so the pre-barrier sweep touches only boundary
  // nodes (on a block-partitioned ring, ~2 per shard). Worker s writes
  // and reads only its own nodes' bytes.
  std::vector<std::uint8_t> boundary_;
  std::vector<Round> next_round_;  // written by shard s before barrier
  Round global_round_ = 0;         // written by the barrier completion
  std::optional<std::barrier<RoundReduce>> barrier_;
  std::atomic<bool> abort_{false};
  bool ran_ = false;
};

}  // namespace smst
