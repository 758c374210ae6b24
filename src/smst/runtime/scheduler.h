// The sleeping-model round engine.
//
// Semantics (normative, see DESIGN.md §4):
//  * A node is awake in round r iff it co_awaited Awake(r, sends).
//  * At round r the scheduler gathers the sends of every round-r awake
//    node, delivers each message iff the *target* is also awake in round
//    r (otherwise drops it and counts it — sleeping nodes lose messages),
//    then resumes every round-r awake node with its inbox.
//  * Rounds with no awake node are never visited: the wake queue jumps
//    straight to the next registered round in O(1) (wake_queue.h), so an
//    execution with huge round counts (the deterministic algorithm's
//    O(nN log n)) costs only Σ awake node-rounds of simulation work, plus
//    at most 63 O(1) queue moves per wake.
//
// Fault injection (DESIGN.md §10): a FaultPlan installed on
// SchedulerOptions is consulted at delivery time (drop / delay /
// duplicate verdicts per message) and at wake registration (jitter,
// crash-stop). With a null plan every fault branch is a single
// well-predicted null/flag check and the engine is bit-identical to the
// fault-free build. An optional Auditor observes the same hook points;
// its call sites compile out under -DSMST_NO_AUDITOR.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "smst/faults/fault_plan.h"
#include "smst/graph/graph.h"
#include "smst/runtime/message.h"
#include "smst/runtime/metrics.h"
#include "smst/runtime/trace.h"
#include "smst/runtime/wake_queue.h"

namespace smst {

class Auditor;
class ShardedEngine;
class FlatEngine;

using Round = std::uint64_t;

// One suspended Awake(...) call; lives inside the awaiting coroutine's
// frame (stable while suspended). Defined here so the scheduler can hold
// pointers to it; constructed by NodeContext. The batches are SmallVecs
// with inline capacity, so a typical awake (degree-bounded sends and
// inbox) costs no heap allocation at all.
struct PendingWake {
  NodeIndex node = kInvalidNode;
  Round round = 0;
  SendBatch sends;
  InboxBatch inbox;
  void* handle_address = nullptr;  // std::coroutine_handle<> address
};

// Advances one flat (coroutine-less) node when its wake comes due: the
// scheduler resumes a PendingWake whose handle_address is null by calling
// the installed stepper instead of a coroutine handle (runtime/flat/).
// The stepper owns the node's state machine; the wake's inbox/sends are
// its mailbox exactly as for a suspended coroutine.
class FlatStepper {
 public:
  virtual ~FlatStepper() = default;
  virtual void Step(PendingWake& wake) = 0;
};

struct SchedulerOptions {
  // Watchdog: abort (NonTerminationError) if the round clock passes this.
  Round max_rounds = std::uint64_t{1} << 62;
  // Borrowed fault plan; null or empty = the fault-free engine. The
  // adversary stream is derived from plan->salt ^ run_seed.
  const FaultPlan* fault_plan = nullptr;
  std::uint64_t run_seed = 0;
  // Borrowed runtime invariant auditor (observation only); may be null.
  // Ignored when the library is built with SMST_NO_AUDITOR.
  Auditor* auditor = nullptr;
};

class Scheduler {
 public:
  Scheduler(const WeightedGraph& graph, Metrics& metrics,
            SchedulerOptions options);
  // Fault-free convenience ctor (tests drive the scheduler directly).
  Scheduler(const WeightedGraph& graph, Metrics& metrics, Round max_rounds)
      : Scheduler(graph, metrics, SchedulerOptions{max_rounds}) {}

  // Registers a suspended node; called from the Awake awaitable. Under an
  // active fault plan the requested round may be jittered or clamped (to
  // current_round + 1), and a crash-stopped node's registration is
  // swallowed entirely — its coroutine stays suspended forever. Throws
  // std::logic_error if the node already has a wake pending.
  void Register(PendingWake* wake);

  // Runs rounds until no node is pending. Throws NonTerminationError if
  // `max_rounds` is exceeded (runaway algorithm watchdog).
  void RunUntilIdle();

  Round CurrentRound() const { return current_round_; }
  bool HasPending() const { return !queue_.Empty(); }
  // Earliest round with a registered wake (kMaxRound if none), in O(1).
  // The sharded driver's round barrier reduces this over all shards to
  // pick the next global round; delayed messages never create rounds (one
  // parked for a round nobody wakes in is lost, as in the serial engine).
  Round NextPendingRound() const { return queue_.NextRound(); }

  void SetTraceSink(TraceSink sink) { trace_ = std::move(sink); }

  // Installs the handler for flat wakes (PendingWakes with a null
  // handle_address). Must outlive the run; null means every wake is a
  // coroutine wake.
  void SetFlatStepper(FlatStepper* stepper) { flat_stepper_ = stepper; }

  // What the adversary did so far (all zero for a null plan).
  const FaultStats& InjectedFaults() const { return faults_.Stats(); }

 private:
  // The sharded engine (runtime/sharded/engine.cpp) drives the same
  // staging / delivery / resume machinery phase by phase across worker
  // threads; it is the one sanctioned out-of-module user of these
  // internals (DESIGN.md §12). The flat fast engine (runtime/flat/
  // engine.cpp) borrows the precomputed CSR reverse-port tables so both
  // engines resolve receiver ports from one shared layout (DESIGN.md §13).
  friend class ShardedEngine;
  friend class FlatEngine;

  // An adversary-delayed message parked until its due round. Ordered by
  // the canonical key (due, birth_round, src, batch_pos, copy) — the
  // message's invariant coordinates rather than an insertion counter —
  // so the drain order (hence duplicate inbox order and drop
  // attribution) is deterministic *and* independent of which shard
  // parked the message. With the canonical ascending-node round order,
  // this key sorts exactly like the serial insertion order did.
  struct DelayedMessage {
    Round due;
    Round birth_round;  // the round the message was sent in
    NodeIndex src;
    std::uint32_t batch_pos;  // index within the sender's send batch
    std::uint8_t copy;        // 0 = original, 1 = adversary duplicate
    NodeIndex dst;
    std::uint32_t dst_port;
    Message msg;
    bool operator>(const DelayedMessage& o) const {
      if (due != o.due) return due > o.due;
      if (birth_round != o.birth_round) return birth_round > o.birth_round;
      if (src != o.src) return src > o.src;
      if (batch_pos != o.batch_pos) return batch_pos > o.batch_pos;
      return copy > o.copy;
    }
  };

  // Per-waker trace scratch for one round (allocated only when tracing).
  struct TraceCounts {
    std::uint32_t dropped = 0;         // model drops (receiver asleep)
    std::uint32_t injected_drops = 0;  // adversary-destroyed sends
    std::uint32_t injected_delays = 0;
    std::uint32_t injected_dups = 0;
  };

  // Advances the round clock to `r` and pops round r's wakers into
  // staged_ in the canonical ascending-node order (DESIGN.md §7), which
  // is what keeps serial and sharded executions bit-identical. Staging
  // no wakers (the shard has nothing due in a global round) is legal.
  void StageRound(Round r);
  // Serial remainder of a round for the staged wakers: drain delayed
  // messages, deliver sends, resume. The sharded engine replaces this
  // with its collect / exchange / receive phases.
  void DeliverAndResume();
  // Delivers or expires delayed messages with due <= r; called after
  // StageRound(r) (and with r = kMaxRound at the end of the run,
  // expiring everything still parked).
  void DrainDelayed(Round r);
  // Node v's wake if v is awake in the round being processed, else null.
  PendingWake* AwakeNow(NodeIndex v) const {
    return queue_.RoundOf(v) == current_round_ ? wakes_[v] : nullptr;
  }

  const WeightedGraph& graph_;
  Metrics& metrics_;
  Round max_rounds_;
  Round current_round_ = 0;
  FaultSession faults_;
  Auditor* auditor_ = nullptr;
  WakeQueue queue_;
  // node -> the PendingWake it registered last. Valid while the node is
  // queued or awake in the current round (AwakeNow); a resumed coroutine
  // may leave it dangling until the node registers again.
  std::vector<PendingWake*> wakes_;
  // Scratch reused every round: the current round's wakers and (when
  // tracing) their fault/drop counts.
  std::vector<NodeIndex> staged_;
  std::vector<TraceCounts> round_trace_;
  // Min-heap of adversary-delayed messages (std::*_heap with
  // std::greater); empty for a null plan.
  std::vector<DelayedMessage> delayed_;
  // CSR over ports, aligned with WeightedGraph's port tables:
  // reverse_ports_[port_offset_[v] + p] is the port index *at the
  // neighbor* for node v's port p. Precomputed so delivery resolves the
  // receiver's port with one load instead of a GetEdge + endpoint
  // comparison per message.
  std::vector<std::size_t> port_offset_;   // size n+1
  std::vector<std::uint32_t> reverse_ports_;
  // Scratch bitset reused by Register's duplicate-port check for nodes
  // of degree > 64 (sized to the max degree once; cleared per use).
  std::vector<std::uint64_t> seen_ports_scratch_;
  TraceSink trace_;
  FlatStepper* flat_stepper_ = nullptr;
};

}  // namespace smst
