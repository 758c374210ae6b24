#include "smst/runtime/scheduler.h"

#include <algorithm>
#include <cassert>
#include <coroutine>
#include <stdexcept>
#include <string>

#include "smst/faults/auditor.h"
#include "smst/faults/run_outcome.h"

// Auditor call sites compile to a single null check by default; a build
// configured with -DSMST_NO_AUDITOR=ON removes them entirely.
#ifdef SMST_NO_AUDITOR
#define SMST_AUDIT_HOOK(call) ((void)0)
#else
#define SMST_AUDIT_HOOK(call) \
  do {                        \
    if (auditor_) {           \
      auditor_->call;         \
    }                         \
  } while (0)
#endif

namespace smst {

Scheduler::Scheduler(const WeightedGraph& graph, Metrics& metrics,
                     SchedulerOptions options)
    : graph_(graph),
      metrics_(metrics),
      max_rounds_(options.max_rounds),
      faults_(options.fault_plan, options.run_seed, graph.NumNodes()),
      auditor_(options.auditor),
      queue_(graph.NumNodes()),
      wakes_(graph.NumNodes(), nullptr),
      port_offset_(graph.NumNodes() + 1, 0) {
  std::size_t max_degree = 0;
  for (NodeIndex v = 0; v < graph_.NumNodes(); ++v) {
    const std::size_t deg = graph_.DegreeOf(v);
    port_offset_[v + 1] = port_offset_[v] + deg;
    max_degree = std::max(max_degree, deg);
  }
  // edge -> (port index at edge.u, port index at edge.v), then flattened
  // into the per-(node, port) reverse-port table the delivery loop reads.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edge_ports(
      graph.NumEdges());
  for (NodeIndex v = 0; v < graph_.NumNodes(); ++v) {
    std::uint32_t port_index = 0;
    for (const Port& p : graph_.PortsOf(v)) {
      if (graph_.GetEdge(p.edge).u == v) edge_ports[p.edge].first = port_index;
      else edge_ports[p.edge].second = port_index;
      ++port_index;
    }
  }
  reverse_ports_.resize(port_offset_.back());
  for (NodeIndex v = 0; v < graph_.NumNodes(); ++v) {
    std::uint32_t port_index = 0;
    for (const Port& p : graph_.PortsOf(v)) {
      reverse_ports_[port_offset_[v] + port_index] =
          graph_.GetEdge(p.edge).u == p.neighbor ? edge_ports[p.edge].first
                                                 : edge_ports[p.edge].second;
      ++port_index;
    }
  }
  if (max_degree > 64) {
    seen_ports_scratch_.resize((max_degree + 63) / 64);
  }
}

void Scheduler::Register(PendingWake* wake) {
  assert(wake != nullptr);
  assert(wake->node < graph_.NumNodes());
  if (queue_.Pending(wake->node)) {
    // Two live PendingWakes for one node would silently clobber each
    // other's delivery state; only direct Register misuse can get here
    // (a coroutine is suspended while its wake is queued), but fail
    // loudly in every build type rather than corrupt the run.
    throw std::logic_error(
        "node " + std::to_string(wake->node) + " registered awake twice: "
        "round " + std::to_string(queue_.RoundOf(wake->node)) +
        " is still pending, requested " + std::to_string(wake->round));
  }
  if (faults_.Active()) {
    // Jitter may move the wake in either direction; clamping (rather than
    // the monotonicity throw below) keeps perturbed runs legal — from the
    // node's point of view the adversary skewed its clock. Crash-stop
    // swallows the registration entirely: the coroutine stays suspended
    // with no queue entry, and Task's destructor reclaims the frame.
    wake->round =
        faults_.PerturbWake(wake->node, wake->round, current_round_ + 1);
    if (faults_.SuppressWake(wake->node, wake->round)) return;
  } else if (wake->round <= current_round_) {
    throw std::logic_error(
        "node " + std::to_string(wake->node) + " requested awake round " +
        std::to_string(wake->round) + " but the clock is already at " +
        std::to_string(current_round_));
  }
  // CONGEST: at most one message per port per round. In a fault-free run
  // a double-send is a programming bug (logic_error, never classified);
  // under an active adversary a duplicated or delayed inbox can trick a
  // correct protocol into replying twice on one port, so the violation is
  // a fault effect and must stay classifiable (-> crashed-partition).
  const auto double_send = [this](NodeIndex node) -> void {
    const std::string what = "node " + std::to_string(node) +
                             " sent two messages on one port in one round";
    if (faults_.Active()) {
      throw std::runtime_error(what + " (fault-corrupted protocol state)");
    }
    throw std::logic_error("two messages on one port in one round");
  };
  {
    const std::size_t degree = graph_.DegreeOf(wake->node);
    if (degree <= 64) {
      std::uint64_t seen_ports = 0;
      for (const OutMessage& out : wake->sends) {
        if (out.port >= degree) {
          throw std::logic_error("send on nonexistent port");
        }
        if (((seen_ports >> out.port) & 1) != 0) {
          double_send(wake->node);
        }
        seen_ports |= std::uint64_t{1} << out.port;
      }
    } else {
      // Reuse the scheduler-owned scratch bitset (sized to the max
      // degree in the constructor) rather than allocating per awake.
      const std::size_t words = (degree + 63) / 64;
      std::fill_n(seen_ports_scratch_.begin(), words, 0);
      for (const OutMessage& out : wake->sends) {
        if (out.port >= degree) {
          throw std::logic_error("send on nonexistent port");
        }
        std::uint64_t& word = seen_ports_scratch_[out.port / 64];
        const std::uint64_t bit = std::uint64_t{1} << (out.port % 64);
        if ((word & bit) != 0) {
          double_send(wake->node);
        }
        word |= bit;
      }
    }
  }
  wakes_[wake->node] = wake;
  queue_.Push(wake->node, wake->round);
}

void Scheduler::RunUntilIdle() {
  while (!queue_.Empty()) {
    const Round r = queue_.NextRound();
    if (r > max_rounds_) {
      throw NonTerminationError("round watchdog tripped at round " +
                                std::to_string(r) + " (max " +
                                std::to_string(max_rounds_) + ")");
    }
    StageRound(r);
    DeliverAndResume();
  }
  // Delayed messages still parked when every node is done (or crashed)
  // can never be delivered; expire them so the model-drop books balance.
  if (!delayed_.empty()) DrainDelayed(kMaxRound);
}

void Scheduler::StageRound(Round r) {
  current_round_ = r;
  metrics_.SetLastRound(r);
  // Canonical round order: ascending node index, regardless of
  // registration history. Delivery and resume order therefore depend
  // only on *which* nodes are awake, which is what makes a sharded run
  // bit-identical to a serial one (DESIGN.md §7, §12).
  queue_.PopRound(r, staged_);
  for (const NodeIndex v : staged_) SMST_AUDIT_HOOK(OnAwake(r, v));
}

void Scheduler::DrainDelayed(Round r) {
  while (!delayed_.empty() && delayed_.front().due <= r) {
    std::pop_heap(delayed_.begin(), delayed_.end(), std::greater<>{});
    const DelayedMessage m = delayed_.back();
    delayed_.pop_back();
    PendingWake* target = m.due == r ? AwakeNow(m.dst) : nullptr;
    if (target != nullptr) {
      // The receiver happens to be awake in the deferred round: the
      // message arrives late but intact.
      target->inbox.push_back(InMessage{m.dst_port, m.msg});
      faults_.CountDelayedDelivered();
      SMST_AUDIT_HOOK(OnDeliver(r, m.src, m.dst, m.msg));
    } else {
      // Due round skipped or receiver asleep: sleeping-model loss,
      // charged to the sender like any other drop.
      ++metrics_.Node(m.src).messages_dropped;
      faults_.CountDelayedLost();
      SMST_AUDIT_HOOK(OnDrop(m.due, m.src, /*injected=*/false));
    }
  }
}

void Scheduler::DeliverAndResume() {
  const Round r = current_round_;

  // Adversary-delayed messages fall due before this round's own sends so
  // a late message and a fresh same-round message arrive in age order.
  if (!delayed_.empty()) DrainDelayed(r);

  // Delivery: same-round send/receive between simultaneously awake
  // endpoints; messages to sleepers are lost (and counted).
  round_trace_.assign(trace_ ? staged_.size() : 0, TraceCounts{});
  const bool faulty = faults_.Active();
  for (std::size_t wi = 0; wi < staged_.size(); ++wi) {
    PendingWake* w = wakes_[staged_[wi]];
    NodeMetrics& nm = metrics_.Node(w->node);
    // Hoist the per-node indirections out of the per-send loop: the port
    // table base and the precomputed receiver-port row.
    const Port* ports = graph_.PortsOf(w->node).data();
    const std::uint32_t* reverse = reverse_ports_.data() + port_offset_[w->node];
    for (std::uint32_t bp = 0; bp < w->sends.size(); ++bp) {
      const OutMessage& out = w->sends[bp];
      const Port& port = ports[out.port];
      ++nm.messages_sent;
      const std::uint64_t bits = out.msg.BitSize();
      nm.bits_sent += bits;
      metrics_.RecordMessageBits(bits);
      SMST_AUDIT_HOOK(OnSend(r, w->node, out.port, out.msg));
      if (faulty) {
        const FaultSession::MessageVerdict verdict =
            faults_.OnMessage(w->node, out.port, r);
        if (verdict.drop) {
          // Adversary drop: distinct from the sleeping-model loss below —
          // it does NOT count towards messages_dropped.
          if (trace_) ++round_trace_[wi].injected_drops;
          SMST_AUDIT_HOOK(OnDrop(r, w->node, /*injected=*/true));
          continue;
        }
        if (verdict.delay != 0) {
          delayed_.push_back(DelayedMessage{r + verdict.delay, r, w->node, bp,
                                            /*copy=*/0, port.neighbor,
                                            reverse[out.port], out.msg});
          std::push_heap(delayed_.begin(), delayed_.end(), std::greater<>{});
          if (trace_) ++round_trace_[wi].injected_delays;
          if (verdict.duplicate) {
            // The duplicate of a delayed message is also delayed (one
            // extra copy in the same deferred round).
            delayed_.push_back(DelayedMessage{r + verdict.delay, r, w->node,
                                              bp, /*copy=*/1, port.neighbor,
                                              reverse[out.port], out.msg});
            std::push_heap(delayed_.begin(), delayed_.end(), std::greater<>{});
            if (trace_) ++round_trace_[wi].injected_dups;
          }
          continue;
        }
        PendingWake* target = AwakeNow(port.neighbor);
        if (target == nullptr) {
          ++nm.messages_dropped;
          if (trace_) ++round_trace_[wi].dropped;
          SMST_AUDIT_HOOK(OnDrop(r, w->node, /*injected=*/false));
          continue;
        }
        target->inbox.push_back(InMessage{reverse[out.port], out.msg});
        SMST_AUDIT_HOOK(OnDeliver(r, w->node, port.neighbor, out.msg));
        if (verdict.duplicate) {
          target->inbox.push_back(InMessage{reverse[out.port], out.msg});
          if (trace_) ++round_trace_[wi].injected_dups;
          SMST_AUDIT_HOOK(OnDeliver(r, w->node, port.neighbor, out.msg));
        }
        continue;
      }
      PendingWake* target = AwakeNow(port.neighbor);
      if (target == nullptr) {
        ++nm.messages_dropped;
        if (trace_) ++round_trace_[wi].dropped;
        SMST_AUDIT_HOOK(OnDrop(r, w->node, /*injected=*/false));
        continue;
      }
      // The receiving side identifies the sender by its own port number
      // for the shared edge (precomputed in reverse_ports_).
      target->inbox.push_back(InMessage{reverse[out.port], out.msg});
      SMST_AUDIT_HOOK(OnDeliver(r, w->node, port.neighbor, out.msg));
    }
  }

  // Resume phase: every awake node gets its inbox and one awake round on
  // the meter, then runs to its next suspension (or completion).
  for (std::size_t wi = 0; wi < staged_.size(); ++wi) {
    PendingWake* w = wakes_[staged_[wi]];
    NodeMetrics& nm = metrics_.Node(w->node);
    ++nm.awake_rounds;
    if (metrics_.WakeTimesEnabled()) nm.wake_times.push_back(r);
    if (trace_) {
      const TraceCounts& tc = round_trace_[wi];
      trace_(TraceEvent{r, w->node,
                        static_cast<std::uint32_t>(w->sends.size()),
                        static_cast<std::uint32_t>(w->inbox.size()),
                        tc.dropped, tc.injected_drops, tc.injected_delays,
                        tc.injected_dups});
    }
    if (w->handle_address == nullptr) {
      // Flat node: no coroutine frame to resume; the installed stepper
      // advances its state machine in place (re-registering `w` itself
      // for the next wake, so the pointer stays valid — it lives in the
      // flat runtime's stable per-node slot, not a coroutine frame).
      flat_stepper_->Step(*w);
      continue;
    }
    auto handle = std::coroutine_handle<>::from_address(w->handle_address);
    // After resume(), `w` may be a dangling pointer (the coroutine frame
    // advanced past the awaitable); do not touch it again.
    handle.resume();
  }
}

}  // namespace smst
