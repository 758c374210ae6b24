// The sleeping-model round engine: the one round loop of the simulator.
//
// Semantics (normative, see DESIGN.md §4):
//  * A node is awake in round r iff its program asked for round r (a flat
//    program returns r; a coroutine program co_awaits Awake(r, sends)
//    through the CoroutineProgram adapter, runtime/node.h).
//  * At round r the scheduler gathers the sends of every round-r awake
//    node, delivers each message iff the *target* is also awake in round
//    r (otherwise drops it and counts it — sleeping nodes lose messages),
//    then steps every round-r awake node with its inbox.
//  * Rounds with no awake node are never visited: the wake queue jumps
//    straight to the next registered round in O(1) (wake_queue.h), so an
//    execution with huge round counts (the deterministic algorithm's
//    O(nN log n)) costs only Σ awake node-rounds of simulation work, plus
//    at most 63 O(1) queue moves per wake.
//
// Node state lives in per-node arrays (struct-of-arrays: send lane, inbox
// lane, status, failure); the two message lanes hold deg(v) slots each
// (runtime/lane.h). The delivery step meters each node straight
// into its NodeMetrics record, so the meters are exact at every point
// of a run, the watchdog throw included. A round with every node awake
// and nothing observing the run is one fused delivery-and-step sweep
// (DESIGN.md §13). Otherwise a round is a delivery sweep and
// a step sweep, and the observers hook into that same code: a FaultPlan
// (drop / delay / duplicate verdicts per message at delivery time,
// jitter and crash-stop at wake registration, DESIGN.md §10), an
// Auditor, and a TraceSink. With no observer each hook compiles out of
// the delivery step.
//
// The Simulator above it (runtime/simulator.h) runs one Scheduler
// through Run on a one-shard run; with K >= 2 shards it runs one
// Scheduler per shard over that shard's own nodes and drives the same
// staging, delivery and step code phase by phase across worker threads.
#pragma once

#include <cstdint>
#include <exception>
#include <utility>
#include <vector>

#include "smst/faults/auditor.h"
#include "smst/faults/fault_plan.h"
#include "smst/graph/graph.h"
#include "smst/runtime/flat/program.h"
#include "smst/runtime/lane.h"
#include "smst/runtime/message.h"
#include "smst/runtime/metrics.h"
#include "smst/runtime/sharded/exchange.h"
#include "smst/runtime/sharded/partition.h"
#include "smst/runtime/trace.h"
#include "smst/runtime/wake_queue.h"

namespace smst {

class Simulator;

struct SchedulerOptions {
  // Watchdog: abort (NonTerminationError) if the round clock passes this.
  Round max_rounds = std::uint64_t{1} << 62;
  // Borrowed fault plan; null or empty = the fault-free engine. The
  // adversary stream is derived from plan->salt ^ run_seed.
  const FaultPlan* fault_plan = nullptr;
  std::uint64_t run_seed = 0;
  // Borrowed runtime invariant auditor (observation only); may be null.
  Auditor* auditor = nullptr;
};

class Scheduler {
 public:
  // Owns every node (a one-shard run), or the nodes the borrowed
  // `partition` gives `shard` (one shard of K >= 2).
  Scheduler(const WeightedGraph& graph, Metrics& metrics,
            SchedulerOptions options,
            const ShardPartition* partition = nullptr,
            std::uint32_t shard = 0);

  void SetTraceSink(TraceSink sink) { trace_ = std::move(sink); }

  // Starts `program` on every owned node in ascending order and runs
  // rounds until no node is pending. Throws NonTerminationError when the
  // watchdog trips; a node whose program throws, or asks for an invalid
  // wake, is marked failed and the run goes on without it, except that
  // std::bad_alloc (the host, not the node) ends the run. One-shard
  // runs only (with K >= 2 the Simulator drives the phases itself).
  // `program` must outlive the scheduler's use of it.
  void Run(FlatProgram& program);

  // What the adversary did so far (all zero for a null plan).
  const FaultStats& InjectedFaults() const { return faults_.Stats(); }

  // Owned nodes whose program neither finished nor failed (crash-
  // stopped nodes and the peers they stranded, or a run cut short).
  std::uint64_t CountUnfinished() const;
  // The smallest such node, kInvalidNode if none.
  NodeIndex FirstUnfinishedNode() const;
  // The smallest owned node whose program failed, and its exception
  // (kInvalidNode and null if none).
  std::pair<NodeIndex, std::exception_ptr> FirstFailure() const;

 private:
  // With K >= 2 shards the Simulator (runtime/sharded/rounds.cpp) drives
  // the same staging / delivery / step machinery phase by phase across
  // worker threads; it is the one sanctioned out-of-module user of these
  // internals (DESIGN.md §12).
  friend class Simulator;

  enum class Status : std::uint8_t { kRunning, kDone, kFailed };

  // Lane of an owned node: its rank among the owned nodes, which is the
  // node itself on a one-shard run. Ranks ascend with node indices, so
  // lane order is canonical order.
  std::size_t Lane(NodeIndex v) const {
    return partition_ == nullptr ? v : partition_->LocalIndex(v);
  }
  NodeIndex NodeOfLane(std::size_t i) const {
    return nodes_ == nullptr ? static_cast<NodeIndex>(i) : nodes_[i];
  }
  bool Owns(NodeIndex v) const {
    return partition_ == nullptr || partition_->Owner(v) == shard_;
  }

  // Start pass: round 0, every owned node stepped to its first request
  // in ascending order — the first wakes are all registered before
  // round 1 runs.
  void Start(FlatProgram& program);
  // Throws NonTerminationError if round r is past the watchdog.
  void CheckWatchdog(Round r) const;
  // Advances the round clock to `r` and pops round r's wakers into
  // staged_ in the canonical ascending-node order (DESIGN.md §7), which
  // is what keeps serial and sharded executions bit-identical. Staging
  // no wakers (the shard has nothing due in a global round) is legal.
  void StageRound(Round r);
  // The delivery sweep of a one-shard round: delayed messages due now,
  // then every staged sender's send lane in ascending order. kObserved =
  // false is a one-shard run with nothing observing it: no hooks, and
  // every node is owned (K >= 2 shards always run the observed form).
  template <bool kObserved>
  void DeliverRound();
  // The delivery step of awake node v, run once per round for every
  // awake node: meters its awake round, then, for each send whose
  // receiver this scheduler owns (the K-shard collect phase publishes the
  // others), the fault verdict, delayed parking, and the inbox append or
  // the model drop. `te` collects v's drop, delay and duplicate counts
  // for its trace event (null when not tracing).
  template <bool kObserved>
  void DeliverBatch(NodeIndex v, TraceEvent* te);
  // Meters one fresh send of awake node v into `meter` (v's record) and
  // returns its fault verdict (one with no effect when no plan is
  // active); shared by the delivery step and the K-shard cross-shard
  // publication.
  template <bool kObserved>
  FaultSession::MessageVerdict Emit(NodeIndex v, const OutMessage& out,
                                    NodeMetrics& meter, TraceEvent* te);
  // Appends a round-r message to dst's inbox if dst is awake this round;
  // returns false (and appends nothing) if it sleeps. The only place a
  // message reaches an inbox.
  template <bool kObserved>
  bool Deliver(NodeIndex src, NodeIndex dst, std::uint32_t dst_port,
               const Message& msg);
  // Parks an adversary-delayed message (due != 0) in the delayed heap.
  void Park(const WireEntry& m);
  // Delivers or expires delayed messages with due <= r; called after
  // StageRound(r) (and with r = kMaxRound at the end of the run,
  // expiring everything still parked).
  void DrainDelayed(Round r);
  // The step sweep: completes and emits each staged node's trace event,
  // steps it, and queues its next wake.
  void StepRound();
  // One all-awake, unobserved round as a single fused sweep (see the
  // definition).
  void FusedRound();
  void BuildFusedOrder();
  // Steps node v (lane i) through the current round; returns the round
  // to queue it for, or 0 if it finished, failed or was crash-stopped.
  // Rethrows std::bad_alloc. Inline: the start pass and both sweeps that
  // call it are in scheduler.cpp.
  inline Round StepNode(NodeIndex v, std::size_t i);
  // The registration contract for node v's next wake with `sends` for
  // that round. Under an active fault plan the round may be jittered or
  // clamped (to current + 1), and a crash-stopped node's wake is
  // swallowed (returns 0). Throws on a round not after the clock (fault-
  // free), a nonexistent port, or two sends on one port.
  Round Admit(NodeIndex v, Round requested, const SendLane& sends);
  void ValidateSends(NodeIndex v, const SendLane& sends);
  void Fail(std::size_t i);

  const WeightedGraph& graph_;
  Metrics& metrics_;
  Round max_rounds_;
  Round current_round_ = 0;
  FaultSession faults_;
  Auditor* auditor_ = nullptr;
  TraceSink trace_;
  const ShardPartition* partition_;
  std::uint32_t shard_;
  const NodeIndex* nodes_ = nullptr;  // lane -> node; null = identity

  FlatProgram* program_ = nullptr;

  // Lanes, indexed by Lane(v): sends_[i] holds what the node queued for
  // its next awake round, inbox_[i] what this round delivered to it. Each
  // is a 16-byte header over deg(v) slots of send_slots_ / inbox_slots_,
  // which hold the owned nodes' slots in lane order, port by port (on a
  // one-shard run lane v's slots start at PortOffset(v)). Separate send
  // and inbox arrays, not one record per node: interleaved, the fused
  // sweep ran ~30 % slower at ring n = 2^18. A node's pending round lives
  // only in its wake-queue slot.
  std::vector<OutMessage> send_slots_;
  std::vector<InMessage> inbox_slots_;
  std::vector<SendLane> sends_;
  std::vector<InboxLane> inbox_;
  std::vector<Status> status_;
  std::vector<std::exception_ptr> errors_;

  // Indexed by node. A node is awake in round r iff it was popped in r:
  // it keeps that queue round until it steps and queues its next wake.
  WakeQueue queue_;
  // Scratch reused every round: the current round's wakers and (when
  // tracing) their trace events, filled by the delivery and step sweeps.
  std::vector<NodeIndex> staged_;
  std::vector<TraceEvent> round_trace_;
  // Min-heap of adversary-delayed messages (std::*_heap with
  // std::greater, so by the canonical key); empty for a null plan.
  std::vector<WireEntry> delayed_;
  // Scratch bitset reused by ValidateSends for nodes of degree > 64
  // (sized to the owned nodes' max degree once; cleared per use).
  std::vector<std::uint64_t> seen_ports_scratch_;

  // Fused-sweep order (built on the first fused round): thresh_[v] =
  // max(v, max neighbor of v) is the delivery-cursor value after which
  // v may step; step_order_ lists nodes by ascending threshold (ties in
  // ascending node order); next_round_[v] holds the admitted wake round
  // a fused step requested (0 = none), queued by an ascending pass at
  // the end of the round.
  std::vector<NodeIndex> thresh_;
  std::vector<NodeIndex> step_order_;
  std::vector<Round> next_round_;
};

// The delivery step is defined here, inline, so that every sweep that
// runs it — the one-shard rounds and the K-shard scan — compiles it
// into its own loop and keeps the scheduler's tables in registers across
// nodes (an out-of-line call per awake node measured ~10 % slower on the
// sparse ring rounds).

template <bool kObserved>
inline FaultSession::MessageVerdict Scheduler::Emit(NodeIndex v,
                                                    const OutMessage& out,
                                                    NodeMetrics& meter,
                                                    TraceEvent* te) {
  const std::uint64_t bits = out.msg.BitSize();
  ++meter.messages_sent;
  meter.bits_sent += bits;
  metrics_.RecordMessageBits(bits);
  if (!kObserved) return {};
  const Round r = current_round_;
  if (auditor_ != nullptr) auditor_->OnSend(r, v, out.port, out.msg);
  if (!faults_.Active()) return {};
  const FaultSession::MessageVerdict verdict =
      faults_.OnMessage(v, out.port, r);
  if (verdict.drop) {
    // Adversary drop: distinct from the sleeping-model loss — it does
    // NOT count towards messages_dropped.
    if (te != nullptr) ++te->injected_drops;
    if (auditor_ != nullptr) auditor_->OnDrop(r, v, /*injected=*/true);
  }
  return verdict;
}

template <bool kObserved>
[[gnu::always_inline]] inline void Scheduler::DeliverBatch(NodeIndex v,
                                                           TraceEvent* te) {
  const std::size_t i = kObserved ? Lane(v) : v;
  const Round r = current_round_;
  NodeMetrics& meter = metrics_.Node(v);
  ++meter.awake_rounds;
  if (metrics_.WakeTimesEnabled()) meter.wake_times.push_back(r);
  const SendLane& sends = sends_[i];
  if (sends.empty()) return;
  // Hoist the per-node indirections out of the per-send loop: the port
  // table base and the graph's reverse-port row.
  const Port* ports = graph_.PortsOf(v).data();
  const std::uint32_t* reverse = graph_.ReversePortsOf(v).data();
  for (std::uint32_t bp = 0; bp < sends.size(); ++bp) {
    const OutMessage& out = sends[bp];
    const NodeIndex dst = ports[out.port].neighbor;
    if (kObserved && !Owns(dst)) continue;  // published to the exchange
    // The scatter target (a neighbor's inbox header) is the one
    // irregular access of the sweep; fetching the next message's target
    // while this one is written hides most of its latency on high-degree
    // nodes.
    if (!kObserved && bp + 1 < sends.size()) {
      __builtin_prefetch(&inbox_[ports[sends[bp + 1].port].neighbor], 1);
    }
    const FaultSession::MessageVerdict verdict =
        Emit<kObserved>(v, out, meter, te);
    if (kObserved) {
      if (verdict.drop) continue;
      if (verdict.delay != 0) {
        WireEntry m{.src = v,
                    .dst = dst,
                    .dst_port = reverse[out.port],
                    .batch_pos = bp,
                    .due = r + verdict.delay,
                    .birth_round = r,
                    .msg = out.msg,
                    .copy = 0};
        Park(m);
        if (te != nullptr) ++te->injected_delays;
        if (verdict.duplicate) {
          // The duplicate of a delayed message is also delayed (one
          // extra copy in the same deferred round).
          m.copy = 1;
          Park(m);
          if (te != nullptr) ++te->injected_dups;
        }
        continue;
      }
    }
    // The receiving side identifies the sender by its own port number
    // for the shared edge (the graph's reverse port).
    if (!Deliver<kObserved>(v, dst, reverse[out.port], out.msg)) {
      // Sleeping-model loss: the receiver is not awake this round.
      ++meter.messages_dropped;
      if (kObserved) {
        if (te != nullptr) ++te->dropped;
        if (auditor_ != nullptr) auditor_->OnDrop(r, v, /*injected=*/false);
      }
      continue;
    }
    if (kObserved && verdict.duplicate) {
      Deliver<kObserved>(v, dst, reverse[out.port], out.msg);
      if (te != nullptr) ++te->injected_dups;
    }
  }
}

template <bool kObserved>
inline bool Scheduler::Deliver(NodeIndex src, NodeIndex dst,
                               std::uint32_t dst_port, const Message& msg) {
  if (queue_.RoundOf(dst) != current_round_) return false;
  inbox_[kObserved ? Lane(dst) : dst].push_back(
      InMessage{dst_port, msg});
  if (kObserved && auditor_ != nullptr) {
    auditor_->OnDeliver(current_round_, src, dst, msg);
  }
  return true;
}

}  // namespace smst
