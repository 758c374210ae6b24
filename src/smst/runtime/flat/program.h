// Flat (coroutine-less) node programs.
//
// A FlatProgram is the batched state-machine form of a NodeProgram: one
// object holds struct-of-arrays state for *all* nodes and advances any
// node by one awake round per call. Instead of `co_await Awake(r, sends)`
// suspending a per-node coroutine frame, a flat node *returns* its next
// awake round (with the round's sends pushed into the out-parameter) and
// is called again with that round's inbox. The mapping is exact:
//
//   coroutine                      flat
//   ---------                      ----
//   program(ctx) + Start()         Step(v, 0, {}, sends) -> first round
//   resume with inbox              Step(v, now, inbox, sends)
//   co_await Awake(r, sends)       return r (sends already pushed)
//   co_return                      return kFlatDone
//
// `inbox` is a read-only view of the node's inbox lane and `sends` its
// send lane (runtime/lane.h): deg(v) slots each, in the engine's own
// arrays, so a step copies no batch.
//
// The Scheduler (runtime/scheduler.h), the one round loop, calls Step
// once per node with now == 0 and an empty inbox (before round 1) and
// then each time the node's requested round comes due, in canonical
// ascending-node order (DESIGN.md §13). It steps nothing else: coroutine
// NodePrograms reach it through the CoroutineProgram adapter
// (runtime/node.h), so a flat program and a coroutine of the same
// protocol give bit-identical runs. An exception thrown by Step marks
// the node failed, exactly like a coroutine exception reaching its
// promise, except for std::bad_alloc: the host is out of memory, and the
// run ends with it (Simulator::Run and RunToOutcome rethrow it).
#pragma once

#include <cstdint>
#include <span>

#include "smst/graph/graph.h"
#include "smst/runtime/lane.h"
#include "smst/runtime/message.h"

namespace smst {

using Round = std::uint64_t;

// Sentinel return: the node's program finished (co_return equivalent).
// It is kMaxRound (faults/fault_plan.h), a round no run reaches — the
// wake queue and the sharded round reducer read it as "none" — so every
// real request, even an invalid round 0, reaches the scheduler's checks.
inline constexpr Round kFlatDone = ~Round{0};

// A node program lowered to a batched state machine over all nodes.
// One instance serves every node of a run (K-shard runs share it across
// worker threads; implementations keep per-node state in disjoint
// per-node slots and touch nothing else from Step). Per-node randomness
// is the program's own concern: drivers split a root PRNG per node
// exactly like Simulator does for contexts.
class FlatProgram {
 public:
  virtual ~FlatProgram() = default;

  // Advances node v through its awake round `now`: `inbox` holds the
  // round's delivered messages; the implementation pushes the *next*
  // requested round's sends into `sends` (empty on entry; at most one per
  // port, deg(v) in all) and returns that round, or kFlatDone when the
  // node terminates. The first call for each node has now == 0 and an
  // empty inbox: it runs the node up to its first suspension (kFlatDone
  // if the node finishes without ever waking). `inbox` is valid only
  // during the call.
  virtual Round Step(NodeIndex v, Round now, std::span<const InMessage> inbox,
                     SendLane& sends) = 0;
};

// The node-local graph view a flat program sees: the same ID / degree /
// port-weight queries NodeContext offers, without the scheduler handle.
struct FlatNodeRef {
  const WeightedGraph* g = nullptr;
  NodeIndex v = kInvalidNode;

  NodeId Id() const { return g->IdOf(v); }
  std::uint64_t NumNodesKnown() const { return g->NumNodes(); }
  NodeId MaxIdKnown() const { return g->MaxId(); }
  std::uint32_t Degree() const {
    return static_cast<std::uint32_t>(g->DegreeOf(v));
  }
  Weight WeightAtPort(std::uint32_t port) const {
    return g->PortsOf(v)[port].weight;
  }
};

}  // namespace smst
