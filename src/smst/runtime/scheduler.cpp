#include "smst/runtime/scheduler.h"

#include <algorithm>
#include <new>
#include <stdexcept>
#include <string>

#include "smst/faults/run_outcome.h"

namespace smst {

Scheduler::Scheduler(const WeightedGraph& graph, Metrics& metrics,
                     SchedulerOptions options,
                     const ShardPartition* partition, std::uint32_t shard)
    : graph_(graph),
      metrics_(metrics),
      max_rounds_(options.max_rounds),
      faults_(options.fault_plan, options.run_seed, graph.NumNodes()),
      auditor_(options.auditor),
      partition_(partition),
      shard_(shard),
      queue_(graph.NumNodes()) {
  std::size_t lanes = graph.NumNodes();
  if (partition_ != nullptr) {
    const std::vector<NodeIndex>& owned = partition_->NodesOf(shard_);
    nodes_ = owned.data();
    lanes = owned.size();
  }
  // deg(v) send and inbox slots per owned node, in lane order.
  std::size_t slots = 0;
  std::size_t max_degree = 0;
  for (std::size_t i = 0; i < lanes; ++i) {
    const std::size_t degree = graph_.DegreeOf(NodeOfLane(i));
    slots += degree;
    max_degree = std::max(max_degree, degree);
  }
  send_slots_.resize(slots);
  inbox_slots_.resize(slots);
  sends_.reserve(lanes);
  inbox_.reserve(lanes);
  for (std::size_t i = 0, first = 0; i < lanes; ++i) {
    const std::size_t degree = graph_.DegreeOf(NodeOfLane(i));
    sends_.emplace_back(send_slots_.data() + first, degree);
    inbox_.emplace_back(inbox_slots_.data() + first, degree);
    first += degree;
  }
  status_.assign(lanes, Status::kRunning);
  errors_.resize(lanes);
  if (max_degree > 64) {
    seen_ports_scratch_.resize((max_degree + 63) / 64);
  }
}

void Scheduler::Run(FlatProgram& program) {
  // Nothing observes the event stream: all-awake rounds may fuse, and
  // the delivery step runs without its hooks.
  const bool observed = faults_.Active() || auditor_ != nullptr || trace_;
  Start(program);
  while (!queue_.Empty()) {
    const Round r = queue_.NextRound();
    CheckWatchdog(r);
    StageRound(r);
    if (observed) {
      DeliverRound<true>();
    } else if (staged_.size() == graph_.NumNodes()) {
      FusedRound();
      continue;
    } else {
      DeliverRound<false>();
    }
    StepRound();
  }
  // Delayed messages still parked when every node is done (or crashed)
  // can never be delivered; expire them so the model-drop books balance.
  if (!delayed_.empty()) DrainDelayed(kMaxRound);
}

void Scheduler::Start(FlatProgram& program) {
  program_ = &program;
  // Round 0: the clock reads 0 and every inbox lane is empty.
  for (std::size_t i = 0; i < status_.size(); ++i) {
    const NodeIndex v = NodeOfLane(i);
    const Round first = StepNode(v, i);
    if (first != 0) queue_.Push(v, first);
  }
}

void Scheduler::CheckWatchdog(Round r) const {
  if (r > max_rounds_) {
    throw NonTerminationError("round watchdog tripped at round " +
                              std::to_string(r) + " (max " +
                              std::to_string(max_rounds_) + ")");
  }
}

void Scheduler::StageRound(Round r) {
  current_round_ = r;
  metrics_.SetLastRound(r);
  // Canonical round order: ascending node index, regardless of
  // registration history. Delivery and step order therefore depend only
  // on *which* nodes are awake, which is what makes a sharded run
  // bit-identical to a serial one (DESIGN.md §7, §12).
  queue_.PopRound(r, staged_);
  if (auditor_ != nullptr) {
    for (const NodeIndex v : staged_) auditor_->OnAwake(r, v);
  }
}

template <bool kObserved>
void Scheduler::DeliverRound() {
  // Adversary-delayed messages fall due before this round's own sends so
  // a late message and a fresh same-round message arrive in age order.
  if (kObserved && !delayed_.empty()) DrainDelayed(current_round_);
  const bool tracing = kObserved && trace_;
  if (tracing) round_trace_.assign(staged_.size(), TraceEvent{});
  for (std::size_t wi = 0; wi < staged_.size(); ++wi) {
    DeliverBatch<kObserved>(staged_[wi],
                            tracing ? &round_trace_[wi] : nullptr);
  }
}

void Scheduler::Park(const WireEntry& m) {
  delayed_.push_back(m);
  std::push_heap(delayed_.begin(), delayed_.end(), std::greater<>{});
}

void Scheduler::DrainDelayed(Round r) {
  while (!delayed_.empty() && delayed_.front().due <= r) {
    std::pop_heap(delayed_.begin(), delayed_.end(), std::greater<>{});
    const WireEntry m = delayed_.back();
    delayed_.pop_back();
    if (m.due == r && Deliver<true>(m.src, m.dst, m.dst_port, m.msg)) {
      // The receiver happens to be awake in the deferred round: the
      // message arrives late but intact.
      faults_.CountDelayedDelivered();
    } else {
      // Due round skipped or receiver asleep: sleeping-model loss,
      // charged to the sender like any other drop (the sender may be
      // another shard's node, so straight to its NodeMetrics record).
      ++metrics_.Node(m.src).messages_dropped;
      faults_.CountDelayedLost();
      if (auditor_ != nullptr) {
        auditor_->OnDrop(m.due, m.src, /*injected=*/false);
      }
    }
  }
}

void Scheduler::StepRound() {
  const Round r = current_round_;
  const bool tracing = static_cast<bool>(trace_);
  for (std::size_t wi = 0; wi < staged_.size(); ++wi) {
    const NodeIndex v = staged_[wi];
    const std::size_t i = Lane(v);
    if (tracing) {
      TraceEvent& e = round_trace_[wi];
      e.round = r;
      e.node = v;
      e.sent = static_cast<std::uint32_t>(sends_[i].size());
      e.received = static_cast<std::uint32_t>(inbox_[i].size());
      trace_(e);
    }
    // Steps push only strictly later rounds, and this round's deliveries
    // are complete, so queueing right away cannot disturb round r.
    const Round next = StepNode(v, i);
    if (next != 0) queue_.Push(v, next);
  }
}

Round Scheduler::StepNode(NodeIndex v, std::size_t i) {
  // Step reads the node's inbox lane in place, through a read-only span,
  // and pushes straight into its send lane; both are cleared, not freed,
  // so a lane that once spilled keeps its heap buffer.
  sends_[i].clear();
  try {
    const Round next = program_->Step(v, current_round_, inbox_[i], sends_[i]);
    inbox_[i].clear();
    if (next != kFlatDone) return Admit(v, next, sends_[i]);
    status_[i] = Status::kDone;
    sends_[i].clear();
    return 0;
  } catch (const std::bad_alloc&) {
    // The host is out of memory: end the run rather than fail the node.
    // Failing nodes one by one would keep an exception per node alive in
    // errors_ until the runtime cannot allocate one more and terminates.
    throw;
  } catch (...) {
    inbox_[i].clear();
    Fail(i);
    return 0;
  }
}

Round Scheduler::Admit(NodeIndex v, Round requested, const SendLane& sends) {
  Round r = requested;
  if (faults_.Active()) {
    // Jitter may move the wake in either direction; clamping (rather than
    // the monotonicity throw below) keeps perturbed runs legal — from the
    // node's point of view the adversary skewed its clock. Crash-stop
    // swallows the wake entirely: the node stays unfinished.
    r = faults_.PerturbWake(v, requested, current_round_ + 1);
    if (faults_.SuppressWake(v, r)) return 0;
  } else if (requested <= current_round_) {
    throw std::logic_error(
        "node " + std::to_string(v) + " requested awake round " +
        std::to_string(requested) + " but the clock is already at " +
        std::to_string(current_round_));
  }
  ValidateSends(v, sends);
  return r;
}

void Scheduler::ValidateSends(NodeIndex v, const SendLane& sends) {
  // CONGEST: at most one message per port per round. In a fault-free run
  // a double-send is a programming bug (logic_error, never classified);
  // under an active adversary a duplicated or delayed inbox can trick a
  // correct protocol into replying twice on one port, so the violation is
  // a fault effect and must stay classifiable (-> crashed-partition).
  const auto double_send = [this, v]() {
    if (faults_.Active()) {
      throw std::runtime_error("node " + std::to_string(v) +
                               " sent two messages on one port in one "
                               "round (fault-corrupted protocol state)");
    }
    throw std::logic_error("two messages on one port in one round");
  };
  const std::size_t degree = graph_.DegreeOf(v);
  if (degree <= 64) {
    std::uint64_t seen_ports = 0;
    for (const OutMessage& out : sends) {
      if (out.port >= degree) {
        throw std::logic_error("send on nonexistent port");
      }
      if (((seen_ports >> out.port) & 1) != 0) double_send();
      seen_ports |= std::uint64_t{1} << out.port;
    }
    return;
  }
  // Reuse the scheduler-owned scratch bitset (sized to the owned nodes'
  // max degree in the constructor) rather than allocating per awake.
  std::fill_n(seen_ports_scratch_.begin(), (degree + 63) / 64, 0);
  for (const OutMessage& out : sends) {
    if (out.port >= degree) {
      throw std::logic_error("send on nonexistent port");
    }
    std::uint64_t& word = seen_ports_scratch_[out.port / 64];
    const std::uint64_t bit = std::uint64_t{1} << (out.port % 64);
    if ((word & bit) != 0) double_send();
    word |= bit;
  }
}

void Scheduler::Fail(std::size_t i) {
  sends_[i].clear();
  status_[i] = Status::kFailed;
  errors_[i] = std::current_exception();
}

void Scheduler::BuildFusedOrder() {
  const NodeIndex n = graph_.NumNodes();
  thresh_.resize(n);
  for (NodeIndex v = 0; v < n; ++v) {
    NodeIndex t = v;
    for (const Port& p : graph_.PortsOf(v)) {
      if (p.neighbor > t) t = p.neighbor;
    }
    thresh_[v] = t;
  }
  step_order_.resize(n);
  for (NodeIndex v = 0; v < n; ++v) step_order_[v] = v;
  // Ties step in ascending node order, so the fused step order is fully
  // determined by the graph.
  std::sort(step_order_.begin(), step_order_.end(),
            [this](NodeIndex a, NodeIndex b) {
              return thresh_[a] != thresh_[b] ? thresh_[a] < thresh_[b]
                                              : a < b;
            });
  next_round_.assign(n, 0);
}

void Scheduler::FusedRound() {
  // All-awake round on a one-shard run: staged_ is exactly 0..n-1, so
  // the delivery cursor IS the sender id, and node v's inbox is complete
  // — and its own send lane drained — as soon as the cursor passes
  // thresh_[v]. Stepping it right then touches inbox_[v]/sends_[v] while
  // they are still resident instead of re-streaming the whole lanes in a
  // second pass; on neighbor-local graphs (rings, paths, grids) the
  // working set of the entire round collapses to a sliding window.
  // Observable behaviour is unchanged: delivery order is still ascending
  // sender, each node still sees its complete round-r inbox, and per-node
  // effects (metrics, errors, next-round requests) are order-independent
  // across nodes within a round.
  if (step_order_.empty()) BuildFusedOrder();
  const NodeIndex n = graph_.NumNodes();
  std::size_t cursor = 0;  // into step_order_
  for (NodeIndex v = 0; v < n; ++v) {
    DeliverBatch<false>(v, nullptr);
    // Step every node whose threshold the cursor just passed. The queue
    // push is deferred to the ascending pass below, so the next round
    // pops already sorted; until then every node keeps round r in its
    // queue slot, so later deliveries still find their receivers awake.
    while (cursor < n && thresh_[step_order_[cursor]] <= v) {
      const NodeIndex u = step_order_[cursor++];
      next_round_[u] = StepNode(u, u);
    }
  }
  for (NodeIndex v = 0; v < n; ++v) {
    if (next_round_[v] != 0) queue_.Push(v, next_round_[v]);
  }
}

std::uint64_t Scheduler::CountUnfinished() const {
  return static_cast<std::uint64_t>(
      std::count(status_.begin(), status_.end(), Status::kRunning));
}

NodeIndex Scheduler::FirstUnfinishedNode() const {
  const auto it = std::find(status_.begin(), status_.end(), Status::kRunning);
  return it == status_.end()
             ? kInvalidNode
             : NodeOfLane(static_cast<std::size_t>(it - status_.begin()));
}

std::pair<NodeIndex, std::exception_ptr> Scheduler::FirstFailure() const {
  for (std::size_t i = 0; i < errors_.size(); ++i) {
    if (errors_[i]) return {NodeOfLane(i), errors_[i]};
  }
  return {kInvalidNode, nullptr};
}

}  // namespace smst
