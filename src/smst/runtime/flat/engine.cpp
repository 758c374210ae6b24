#include "smst/runtime/flat/engine.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "smst/faults/run_outcome.h"

namespace smst {

FlatEngine::FlatEngine(const WeightedGraph& graph, Metrics& metrics,
                       const Scheduler& csr, Round max_rounds)
    : graph_(graph),
      metrics_(metrics),
      max_rounds_(max_rounds),
      sends_(graph.NumNodes()),
      inbox_(graph.NumNodes()),
      status_(graph.NumNodes(), Status::kRunning),
      errors_(graph.NumNodes()),
      acc_(graph.NumNodes()),
      queue_(graph.NumNodes()),
      port_offset_(csr.port_offset_),
      reverse_ports_(csr.reverse_ports_) {
  std::size_t max_degree = 0;
  for (NodeIndex v = 0; v < graph_.NumNodes(); ++v) {
    max_degree = std::max(max_degree, graph_.DegreeOf(v));
  }
  if (max_degree > 64) {
    seen_ports_scratch_.resize((max_degree + 63) / 64);
  }
}

void FlatEngine::ValidateSends(NodeIndex v, const SendBatch& sends) {
  // Same contract and messages as Scheduler::Register's fault-free path:
  // CONGEST allows at most one message per port per round, on a port
  // that exists.
  const std::size_t degree = graph_.DegreeOf(v);
  if (degree <= 64) {
    std::uint64_t seen_ports = 0;
    for (const OutMessage& out : sends) {
      if (out.port >= degree) {
        throw std::logic_error("send on nonexistent port");
      }
      if (((seen_ports >> out.port) & 1) != 0) {
        throw std::logic_error("two messages on one port in one round");
      }
      seen_ports |= std::uint64_t{1} << out.port;
    }
  } else {
    const std::size_t words = (degree + 63) / 64;
    std::fill_n(seen_ports_scratch_.begin(), words, 0);
    for (const OutMessage& out : sends) {
      if (out.port >= degree) {
        throw std::logic_error("send on nonexistent port");
      }
      std::uint64_t& word = seen_ports_scratch_[out.port / 64];
      const std::uint64_t bit = std::uint64_t{1} << (out.port % 64);
      if ((word & bit) != 0) {
        throw std::logic_error("two messages on one port in one round");
      }
      word |= bit;
    }
  }
}

void FlatEngine::RegisterNext(NodeIndex v, Round r, const SendBatch& sends) {
  if (r <= current_) {
    throw std::logic_error(
        "node " + std::to_string(v) + " requested awake round " +
        std::to_string(r) + " but the clock is already at " +
        std::to_string(current_));
  }
  ValidateSends(v, sends);
  queue_.Push(v, r);
}

void FlatEngine::Run(FlatProgram& program) {
  FlatEnv env;
  env.metrics = &metrics_;

  // Start pass: every node to its first suspension, ascending — the flat
  // twin of the simulator's construct-all-then-Start-all two-pass.
  for (NodeIndex v = 0; v < graph_.NumNodes(); ++v) {
    SendBatch& sends = sends_[v];
    sends.clear();
    try {
      const Round first = program.Start(v, env, sends);
      if (first == kFlatDone) {
        status_[v] = Status::kDone;
        sends.clear();
        continue;
      }
      RegisterNext(v, first, sends);
    } catch (...) {
      sends.clear();
      status_[v] = Status::kFailed;
      errors_[v] = std::current_exception();
    }
  }

  const bool wake_times = metrics_.WakeTimesEnabled();
  try {
    RunRounds(program, env, wake_times);
  } catch (...) {
    // The watchdog throw must leave the meters exactly as a coroutine
    // run's would be at the same point: fold what accumulated, then let
    // the exception continue.
    FoldMetrics();
    throw;
  }
  FoldMetrics();
}

void FlatEngine::RunRounds(FlatProgram& program, FlatEnv& env,
                           const bool wake_times) {
  while (!queue_.Empty()) {
    const Round r = queue_.NextRound();
    if (r > max_rounds_) {
      throw NonTerminationError("round watchdog tripped at round " +
                                std::to_string(r) + " (max " +
                                std::to_string(max_rounds_) + ")");
    }
    current_ = r;
    metrics_.SetLastRound(r);
    // Steps push only strictly later rounds, so the round-r set popped
    // here is final; it comes out in the canonical ascending order.
    queue_.PopRound(r, staged_);

    const std::size_t staged_count = staged_.size();
    const NodeIndex* nodes = staged_.data();

    // All-awake rounds (every dense-round workload, and every toolbox
    // block where the whole graph participates) need no awake test: each
    // delivery lands on a staged receiver by construction, so the
    // per-message probe is skipped and the delivery and step sweeps fuse
    // into one pass.
    const bool all_awake = staged_count == graph_.NumNodes();
    if (all_awake) {
      FusedRound(program, env, r, wake_times);
      continue;
    }

    // Delivery sweep (whole round before any node steps): ascending
    // sender, batch order — the scheduler's exact delivery order. The
    // per-sender meters land in the dense accumulator records; the sums
    // and maxima are associative, so folding them into NodeMetrics once
    // at the end of the run (FoldMetrics) yields bit-identical totals.
    for (std::size_t i = 0; i < staged_count; ++i) {
      const NodeIndex v = nodes[i];
      MeterAcc& acc = acc_[v];
      ++acc.awake;
      if (wake_times) metrics_.Node(v).wake_times.push_back(r);
      const SendBatch& sends = sends_[v];
      if (sends.empty()) continue;
      const OutMessage* out_begin = sends.data();
      const std::size_t out_count = sends.size();
      const Port* ports = graph_.PortsOf(v).data();
      const std::uint32_t* reverse = reverse_ports_.data() + port_offset_[v];
      std::uint64_t bits_sum = 0;
      std::uint64_t dropped = 0;
      for (std::size_t j = 0; j < out_count; ++j) {
        // The scatter target (a neighbor's inbox header) is the one
        // irregular access in the sweep; fetching the next message's
        // target while this one is written hides most of its latency on
        // high-degree nodes.
        if (j + 1 < out_count) {
          __builtin_prefetch(&inbox_[ports[out_begin[j + 1].port].neighbor],
                             1);
        }
        const OutMessage& out = out_begin[j];
        const std::uint64_t bits = out.msg.BitSize();
        bits_sum += bits;
        if (bits > max_bits_seen_) max_bits_seen_ = bits;
        const NodeIndex neighbor = ports[out.port].neighbor;
        // Awake in r iff popped in r: the node keeps that queue round
        // until it steps, and steps come after this whole sweep.
        if (queue_.RoundOf(neighbor) == r) {
          inbox_[neighbor].push_back(InMessage{reverse[out.port], out.msg});
        } else {
          // Sleeping-model loss: the receiver is not awake this round.
          ++dropped;
        }
      }
      acc.msgs += out_count;
      acc.bits += bits_sum;
      acc.drops += dropped;
    }

    // Step sweep: the program itself. The node's inbox slot is handed to
    // Step directly (programs take it by const reference and only ever
    // write into their own send slot) and cleared afterwards, so the
    // inline buffer is never copied; the send slot is reused round over
    // round, so its heap spill (if any) is allocated once.
    for (std::size_t i = 0; i < staged_count; ++i) {
      const NodeIndex v = nodes[i];
      SendBatch& sends = sends_[v];
      sends.clear();
      try {
        const Round next = program.Step(v, r, env, inbox_[v], sends);
        inbox_[v].clear();
        if (next == kFlatDone) {
          status_[v] = Status::kDone;
          sends.clear();
          continue;
        }
        RegisterNext(v, next, sends);
      } catch (...) {
        inbox_[v].clear();
        sends.clear();
        status_[v] = Status::kFailed;
        errors_[v] = std::current_exception();
      }
    }
  }
}

void FlatEngine::BuildFusedOrder() {
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
  // Ties step in ascending node order (stable over the iota above), so
  // the fused step order is fully determined by the graph.
  std::stable_sort(step_order_.begin(), step_order_.end(),
                   [this](NodeIndex a, NodeIndex b) {
                     return thresh_[a] < thresh_[b];
                   });
  next_round_.assign(n, 0);
  fused_ready_ = true;
}

void FlatEngine::FusedRound(FlatProgram& program, FlatEnv& env, const Round r,
                            const bool wake_times) {
  // All-awake round: staged_ is exactly 0..n-1, so the delivery cursor
  // IS the sender id, every send lands on an awake receiver (no awake
  // probes), and node v's inbox is complete — and its own send slot
  // drained — as soon as the cursor passes thresh_[v]. Stepping it right
  // then touches inbox_[v]/sends_[v] while they are still resident
  // instead of re-streaming the whole slot arrays in a second pass; on
  // neighbor-local graphs (rings, paths, grids) the working set of the
  // entire round collapses to a sliding window.
  if (!fused_ready_) BuildFusedOrder();
  const NodeIndex n = graph_.NumNodes();
  std::size_t cursor = 0;  // into step_order_
  for (NodeIndex v = 0; v < n; ++v) {
    // Delivery for sender v — same body, order, and meters as the
    // two-sweep path.
    MeterAcc& acc = acc_[v];
    ++acc.awake;
    if (wake_times) metrics_.Node(v).wake_times.push_back(r);
    const SendBatch& sends = sends_[v];
    const std::size_t out_count = sends.size();
    if (out_count != 0) {
      const OutMessage* out_begin = sends.data();
      const Port* ports = graph_.PortsOf(v).data();
      const std::uint32_t* reverse = reverse_ports_.data() + port_offset_[v];
      std::uint64_t bits_sum = 0;
      for (std::size_t j = 0; j < out_count; ++j) {
        if (j + 1 < out_count) {
          __builtin_prefetch(&inbox_[ports[out_begin[j + 1].port].neighbor],
                             1);
        }
        const OutMessage& out = out_begin[j];
        const std::uint64_t bits = out.msg.BitSize();
        bits_sum += bits;
        if (bits > max_bits_seen_) max_bits_seen_ = bits;
        inbox_[ports[out.port].neighbor].push_back(
            InMessage{reverse[out.port], out.msg});
      }
      acc.msgs += out_count;
      acc.bits += bits_sum;
    }

    // Step every node whose threshold the cursor just passed. Validation
    // runs here, while the batch is hot; the queue push is deferred to
    // the ascending registration pass below, so the next round pops
    // already sorted.
    while (cursor < n && thresh_[step_order_[cursor]] <= v) {
      const NodeIndex u = step_order_[cursor++];
      SendBatch& out = sends_[u];
      out.clear();
      next_round_[u] = 0;
      try {
        const Round next = program.Step(u, r, env, inbox_[u], out);
        inbox_[u].clear();
        if (next == kFlatDone) {
          status_[u] = Status::kDone;
          out.clear();
          continue;
        }
        if (next <= current_) {
          throw std::logic_error(
              "node " + std::to_string(u) + " requested awake round " +
              std::to_string(next) + " but the clock is already at " +
              std::to_string(current_));
        }
        ValidateSends(u, out);
        next_round_[u] = next;
      } catch (...) {
        inbox_[u].clear();
        out.clear();
        status_[u] = Status::kFailed;
        errors_[u] = std::current_exception();
      }
    }
  }

  // Registration pass: ascending nodes, already-validated batches. Pure
  // index traffic — the message slots are not touched again.
  for (NodeIndex v = 0; v < n; ++v) {
    if (next_round_[v] != 0) queue_.Push(v, next_round_[v]);
  }
}

void FlatEngine::FoldMetrics() {
  for (NodeIndex v = 0; v < graph_.NumNodes(); ++v) {
    MeterAcc& acc = acc_[v];
    if (acc.awake == 0 && acc.msgs == 0) continue;
    NodeMetrics& nm = metrics_.Node(v);
    nm.awake_rounds += acc.awake;
    nm.messages_sent += acc.msgs;
    nm.bits_sent += acc.bits;
    nm.messages_dropped += acc.drops;
    acc = MeterAcc{};
  }
  if (max_bits_seen_ > 0) {
    metrics_.RecordMessageBits(max_bits_seen_);
    max_bits_seen_ = 0;
  }
}

std::uint64_t FlatEngine::CountUnfinished() const {
  std::uint64_t unfinished = 0;
  for (const Status s : status_) {
    if (s == Status::kRunning) ++unfinished;
  }
  return unfinished;
}

NodeIndex FlatEngine::FirstUnfinishedNode() const {
  for (NodeIndex v = 0; v < status_.size(); ++v) {
    if (status_[v] == Status::kRunning) return v;
  }
  return kInvalidNode;
}

void FlatEngine::RethrowFirstFailure() const {
  for (const std::exception_ptr& e : errors_) {
    if (e) std::rethrow_exception(e);
  }
}

}  // namespace smst
