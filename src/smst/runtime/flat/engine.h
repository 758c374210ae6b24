// Fault-free serial fast path for flat programs.
//
// When a run needs no fault plan, no auditor, and no trace sink, nothing
// in the scheduler's per-wake machinery (PendingWake indirection, fault
// verdict branches, delayed-message heap) earns its keep: a flat
// program's nodes are dense indices with one stable slot each, so the
// whole round loop collapses into array sweeps over struct-of-arrays
// node state. This engine is that collapse. It reproduces the serial
// scheduler's observable behaviour exactly — same round clock, same
// canonical ascending-node delivery and step order, same metrics
// (messages / bits / drops / awake rounds / wake times / last round),
// same error messages — so its runs are bit-identical to the scheduler
// loop's (pinned by tests/mst_golden_test.cpp). See DESIGN.md §13 for
// why each sweep preserves the scheduler's order.
#pragma once

#include <cstdint>
#include <exception>
#include <vector>

#include "smst/graph/graph.h"
#include "smst/runtime/flat/program.h"
#include "smst/runtime/metrics.h"
#include "smst/runtime/scheduler.h"
#include "smst/runtime/wake_queue.h"

namespace smst {

class FlatEngine {
 public:
  // Borrows the CSR reverse-port tables from `csr` (a Scheduler built on
  // the same graph; FlatEngine is its friend) so both engines resolve
  // receiver ports from one precomputed layout.
  FlatEngine(const WeightedGraph& graph, Metrics& metrics,
             const Scheduler& csr, Round max_rounds);

  // Starts every node and runs rounds until none is pending. Throws
  // NonTerminationError when the watchdog trips; program failures are
  // captured per node (rethrow with RethrowFirstFailure, as the
  // simulator does after a run).
  void Run(FlatProgram& program);

  std::uint64_t CountUnfinished() const;
  NodeIndex FirstUnfinishedNode() const;
  void RethrowFirstFailure() const;

 private:
  enum class Status : std::uint8_t { kRunning, kDone, kFailed };

  // Queues node v's next wake at round r, enforcing the scheduler's
  // fault-free Register contract (monotone rounds, valid ports, one
  // message per port) with identical error messages.
  void RegisterNext(NodeIndex v, Round r, const SendBatch& sends);
  void ValidateSends(NodeIndex v, const SendBatch& sends);
  // The round loop proper; split out of Run so the metric fold below
  // runs on both the clean exit and the watchdog throw.
  void RunRounds(FlatProgram& program, FlatEnv& env, bool wake_times);
  // One all-awake round as a single fused sweep: node v steps as soon as
  // the ascending delivery cursor passes thresh_[v] (so its inbox is
  // complete and its send slot already drained), instead of in a second
  // full pass after all deliveries. At large n this halves the memory
  // traffic per round — the step re-reads inbox_[v]/sends_[v] while
  // they are still in cache. Observable behaviour is unchanged: delivery
  // order is still ascending sender, each node still sees its complete
  // round-r inbox, and per-node effects (metrics, errors, next-round
  // registrations) are order-independent across nodes within a round.
  void FusedRound(FlatProgram& program, FlatEnv& env, Round r,
                  bool wake_times);
  void BuildFusedOrder();
  // Adds the dense accumulator records into the shared NodeMetrics
  // records and resets them (so a second call is a no-op).
  void FoldMetrics();

  const WeightedGraph& graph_;
  Metrics& metrics_;
  Round max_rounds_;
  Round current_ = 0;

  // Struct-of-arrays node state: per-node mailboxes (sends_[v] is the
  // batch node v queued for its next awake round; inbox_[v] what this
  // round delivered to it), the program status lane, and the captured
  // failure, all indexed by the dense node index. A node's pending round
  // lives only in its wake-queue slot below.
  std::vector<SendBatch> sends_;
  std::vector<InboxBatch> inbox_;
  std::vector<Status> status_;
  std::vector<std::exception_ptr> errors_;

  // Dense meter records (32-byte stride, one hardware-prefetched stream)
  // for the hot per-round accounting; folded into the 64-byte
  // NodeMetrics records once per run by FoldMetrics. Wake-time
  // recording, when enabled, still appends to NodeMetrics directly (it
  // needs the per-round value, not a sum).
  struct MeterAcc {
    std::uint64_t awake = 0;
    std::uint64_t msgs = 0;
    std::uint64_t bits = 0;
    std::uint64_t drops = 0;
  };
  std::vector<MeterAcc> acc_;
  std::uint64_t max_bits_seen_ = 0;

  // The same wake queue as the Scheduler's, over node indices. Its
  // per-node round doubles as the awake test of the delivery sweep: a
  // node is awake in round r iff it was popped in r.
  WakeQueue queue_;
  std::vector<NodeIndex> staged_;
  std::vector<std::uint64_t> seen_ports_scratch_;

  // Fused-sweep order (built lazily on the first all-awake round):
  // thresh_[v] = max(v, max neighbor of v) is the delivery-cursor value
  // after which v may step; step_order_ lists nodes by ascending
  // threshold (ties in ascending node order); next_round_[v] holds the
  // validated wake round a fused step requested (0 = none), drained by
  // an ascending registration pass at the end of the round.
  std::vector<NodeIndex> thresh_;
  std::vector<NodeIndex> step_order_;
  std::vector<Round> next_round_;
  bool fused_ready_ = false;

  // Borrowed from the friend Scheduler (same graph, same layout).
  const std::vector<std::size_t>& port_offset_;
  const std::vector<std::uint32_t>& reverse_ports_;
};

}  // namespace smst
