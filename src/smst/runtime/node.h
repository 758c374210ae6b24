// NodeContext: the complete world as one node sees it.
//
// This is the only interface a coroutine node program may touch (flat
// programs see the same knowledge through FlatNodeRef and their Step
// arguments; runtime/flat/program.h). It exposes exactly the paper's
// initial knowledge — own ID, n, N, degree, incident edge weights (by
// port), the round clock, and a private randomness source — plus the
// single model primitive:
//
//   InboxBatch received =
//       co_await ctx.Awake(round, {{port, msg}, ...});
//
// "Be asleep until `round`, be awake in `round`, send these messages, and
// receive whatever arrives from simultaneously-awake neighbors." Sleeping
// costs nothing; every Awake costs one awake round on the meter.
//
// Deliberately absent: neighbor identities (learned only via messages),
// any global state, other nodes' metrics.
#pragma once

#include <cassert>
#include <coroutine>
#include <cstdint>
#include <utility>
#include <vector>

#include "smst/graph/graph.h"
#include "smst/runtime/message.h"
#include "smst/runtime/metrics.h"
#include "smst/runtime/scheduler.h"
#include "smst/util/prng.h"

namespace smst {

class NodeContext {
 public:
  NodeContext(const WeightedGraph& graph, NodeIndex index,
              Scheduler& scheduler, Metrics& metrics, Xoshiro256 rng)
      : graph_(graph),
        index_(index),
        scheduler_(scheduler),
        metrics_(metrics),
        rng_(std::move(rng)) {}

  NodeContext(const NodeContext&) = delete;
  NodeContext& operator=(const NodeContext&) = delete;

  // --- the paper's initial knowledge -----------------------------------
  NodeId Id() const { return graph_.IdOf(index_); }
  std::size_t NumNodesKnown() const { return graph_.NumNodes(); }  // n
  NodeId MaxIdKnown() const { return graph_.MaxId(); }             // N
  std::size_t Degree() const { return graph_.DegreeOf(index_); }
  Weight WeightAtPort(std::uint32_t port) const {
    return graph_.PortsOf(index_)[port].weight;
  }
  Round CurrentRound() const { return scheduler_.CurrentRound(); }
  Xoshiro256& Rng() { return rng_; }

  // --- the model primitive ---------------------------------------------
  struct AwakeAwaiter {
    NodeContext* ctx;
    PendingWake wake;

    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      wake.handle_address = h.address();
      ctx->scheduler_.Register(&wake);
    }
    InboxBatch await_resume() { return std::move(wake.inbox); }
  };

  // Be awake in absolute round `round` (strictly after the current round)
  // and send `sends` (at most one message per port). The batches are
  // SmallVecs (message.h): up to kInlineMessageCapacity sends/receipts
  // stay inside the coroutine frame, so a typical awake allocates
  // nothing.
  AwakeAwaiter Awake(Round round, SendBatch sends = {}) {
    return AwakeAwaiter{
        this, PendingWake{index_, round, std::move(sends), {}, nullptr}};
  }

  // Single-send convenience. (Also sidesteps a GCC bug where a braced
  // initializer-list inside a co_await expression fails to compile:
  // "array used as initializer", GCC PR 102489.)
  AwakeAwaiter Awake(Round round, OutMessage send) {
    SendBatch sends;
    sends.push_back(std::move(send));
    return Awake(round, std::move(sends));
  }

  // Declares the round in which this node's program terminates locally;
  // extends the run-time meter past trailing sleeping rounds (run time
  // counts sleeping rounds too, per the model).
  void ReportTermination(Round round) { metrics_.ExtendRun(round); }

  // --- out-of-band telemetry (benches only; no effect on execution) ----
  void Probe(std::uint32_t kind, std::uint64_t key, std::int64_t delta = 1) {
    metrics_.Probe(kind, key, delta);
  }

  // Simulation-internal identity (used by algorithms only to index their
  // own output arrays; carries no model information a node lacks, since
  // outputs could equally be keyed by ID).
  NodeIndex Index() const { return index_; }

 private:
  const WeightedGraph& graph_;
  NodeIndex index_;
  Scheduler& scheduler_;
  Metrics& metrics_;
  Xoshiro256 rng_;
};

}  // namespace smst
