#include "smst/runtime/sharded/engine.h"

#include <stdexcept>
#include <thread>
#include <utility>

#include "smst/faults/auditor.h"

namespace smst {

namespace {

bool WantAuditor(AuditMode mode) {
  switch (mode) {
    case AuditMode::kOn: return true;
    case AuditMode::kOff: return false;
    case AuditMode::kDefault:
#ifdef SMST_AUDIT_DEFAULT_ON
      return true;
#else
      return false;
#endif
  }
  return false;
}

}  // namespace

ShardedEngine::Shard::Shard(const WeightedGraph& graph, Metrics* run_metrics,
                            const SimulatorOptions& options,
                            const ShardPartition* partition, std::uint32_t s)
    : own_metrics(run_metrics == nullptr
                      ? std::make_unique<Metrics>(graph.NumNodes())
                      : nullptr),
      metrics(run_metrics == nullptr ? *own_metrics : *run_metrics),
      auditor(WantAuditor(options.audit) ? std::make_unique<Auditor>(graph)
                                         : nullptr),
      scheduler(std::make_unique<Scheduler>(
          graph, metrics,
          SchedulerOptions{options.max_rounds, options.fault_plan,
                           options.seed, auditor.get()},
          partition, s)) {
  if (own_metrics && options.record_wake_times) own_metrics->EnableWakeTimes();
}

ShardedEngine::ShardedEngine(const WeightedGraph& graph, Metrics& metrics,
                             const SimulatorOptions& options)
    : graph_(graph), metrics_(metrics), options_(options) {
  const std::uint32_t k =
      ShardPartition::ClampShards(graph.NumNodes(), options.shards);
  if (k == 1) {
    shards_.push_back(
        std::make_unique<Shard>(graph_, &metrics_, options_, nullptr, 0));
    if (options_.trace) shards_[0]->scheduler->SetTraceSink(options_.trace);
    return;
  }
  if (options_.trace) {
    // A sender's model-drop counts are only known receiver-side after
    // the exchange barrier, so exact per-sender trace events cannot be
    // emitted shard-locally. Tracing is a debugging feature; run it on
    // one shard.
    throw std::invalid_argument(
        "tracing requires one shard (shards <= 1); it is not supported "
        "with shards >= 2");
  }
  partition_.emplace(graph.NumNodes(), k, options_.shard_policy);
  exchange_.emplace(k);
  // Slots only; each worker constructs its own Shard in ShardMain so
  // the per-shard O(n) state is built in parallel, owner-thread-local.
  shards_.resize(k);
  errors_.resize(k);
  next_round_.assign(k, kMaxRound);
}

FlatProgram& ShardedEngine::ProgramOf(Shard& shard, std::uint32_t s,
                                      const NodeProgram* coroutine,
                                      FlatProgram* flat) {
  if (coroutine == nullptr) return *flat;
  shard.coroutines = std::make_unique<CoroutineProgram>(
      graph_, shard.metrics, *coroutine, options_.seed,
      partition_ ? &*partition_ : nullptr, s);
  return *shard.coroutines;
}

void ShardedEngine::Execute(const NodeProgram* coroutine, FlatProgram* flat) {
  if (!partition_) {
    // One shard: the round loop itself, on the calling thread.
    Shard& shard = *shards_[0];
    shard.scheduler->Run(ProgramOf(shard, 0, coroutine, flat));
    return;
  }

  const std::uint32_t k = partition_->NumShards();
  barrier_.emplace(static_cast<std::ptrdiff_t>(k), RoundReduce{this});

  std::vector<std::thread> workers;
  workers.reserve(k);
  for (std::uint32_t s = 0; s < k; ++s) {
    workers.emplace_back(
        [this, s, coroutine, flat] { ShardMain(s, coroutine, flat); });
  }
  for (std::thread& t : workers) t.join();

  // Merge in fixed shard order so the result is a pure function of the
  // per-shard states: every counter is a sum, round and message-bit
  // peaks are maxima, probes are key-summed, wake times are owner-only.
  for (const auto& shard : shards_) {
    if (!shard) continue;  // failed before constructing; see errors_
    metrics_.MergeFrom(shard->metrics);
  }
  // Run-level failures (watchdog, allocation failure) rethrow
  // lowest-shard-first — deterministic, and for the watchdog identical on
  // every shard anyway.
  for (const std::exception_ptr& e : errors_) {
    if (e) std::rethrow_exception(e);
  }
}

void ShardedEngine::ShardMain(std::uint32_t s, const NodeProgram* coroutine,
                              FlatProgram* flat) {
  try {
    // Build this shard's state and start its node programs on the worker
    // thread itself: the Metrics/Scheduler arrays and the coroutine
    // frames are then allocated (and first-touched) by the thread that
    // will use them, and the K shards set up in parallel. Each node's
    // randomness is the same seed-derived substream a one-shard run
    // would hand it: Split is a pure function of (seed, node index).
    const ShardPartition& partition = *partition_;
    shards_[s] = std::make_unique<Shard>(graph_, nullptr, options_,
                                         &partition, s);
    Shard& shard = *shards_[s];
    Scheduler& sched = *shard.scheduler;
    shard.inbound.resize(partition.NumShards());
    shard.cross_ports.assign(graph_.NumNodes(), 0);
    for (const NodeIndex v : partition.NodesOf(s)) {
      for (const Port& port : graph_.PortsOf(v)) {
        if (partition.Owner(port.neighbor) != s) {
          shard.cross_ports[v] = 1;
          break;
        }
      }
    }
    sched.Start(ProgramOf(shard, s, coroutine, flat));
    for (;;) {
      next_round_[s] = sched.queue_.NextRound();
      barrier_->arrive_and_wait();  // completion computes global_round_
      if (abort_.load(std::memory_order_acquire)) break;
      const Round r = global_round_;
      if (r == kMaxRound) {
        // Every shard idle: clean stop. Expire still-parked delayed
        // messages so the model-drop books balance (mirrors
        // Scheduler::Run's end-of-run drain).
        sched.DrainDelayed(kMaxRound);
        break;
      }
      // Same trip point and message as a one-shard run; every shard
      // throws this identically.
      sched.CheckWatchdog(r);
      sched.StageRound(r);  // possibly zero local wakers
      CollectSends(s, r);
      barrier_->arrive_and_wait();  // all sends published
      if (abort_.load(std::memory_order_acquire)) break;
      Receive(s, r);
      sched.StepRound();
    }
  } catch (...) {
    errors_[s] = std::current_exception();
    // Release the others: the drop counts as this shard's arrival for
    // the phase it abandoned, and the flag (published before the drop)
    // tells them to stop at their next barrier exit.
    abort_.store(true, std::memory_order_release);
    barrier_->arrive_and_drop();
  }
  // However the run ended, free the shard's coroutine frames on the
  // thread that allocated them: they go back to this worker's free lists
  // (frame_pool.cpp), which are released as it exits, so no frame crosses
  // threads and no thread's lists grow across runs. The post-run views
  // need only the scheduler, which holds every node failure.
  if (shards_[s]) shards_[s]->coroutines.reset();
}

void ShardedEngine::CollectSends(std::uint32_t s, Round r) {
  // Pre-barrier half of the round: publish the *cross-shard* sends to
  // the exchange. Shard-local sends are handled entirely by this
  // shard's own post-barrier scan (Receive), where they can interleave
  // with remote arrivals in canonical source order — pushing them
  // through the exchange would only add copies.
  //
  // Each send is metered (count, bits, audit OnSend) and given its fault
  // verdict exactly once, by Scheduler::Emit: here for cross-shard
  // sends, because a drop/delay/duplicate must be resolved before the
  // entry goes on the wire, and in the delivery step for local sends.
  // Metrics are commutative sums and the auditor's books are order-free
  // within a round, so the split cannot change any total.
  Scheduler& sched = *shards_[s]->scheduler;
  const std::vector<std::uint8_t>& cross_ports = shards_[s]->cross_ports;
  for (const NodeIndex v : sched.staged_) {
    if (!cross_ports[v]) continue;  // all ports internal
    const SendBatch& sends = sched.sends_[sched.Lane(v)];
    NodeMetrics& meter = sched.metrics_.Node(v);
    const Port* ports = graph_.PortsOf(v).data();
    const std::uint32_t* reverse =
        sched.reverse_ports_.data() + graph_.PortOffset(v);
    for (std::uint32_t bp = 0; bp < sends.size(); ++bp) {
      const OutMessage& out = sends[bp];
      const NodeIndex dst = ports[out.port].neighbor;
      const std::uint32_t to = partition_->Owner(dst);
      if (to == s) continue;  // metered and delivered post-barrier
      const FaultSession::MessageVerdict verdict =
          sched.Emit<true>(v, out, meter, nullptr);
      if (verdict.drop) continue;
      // A delayed entry carries its absolute due round; the receiver
      // shard parks it. A duplicate is one extra adjacent copy, fresh or
      // delayed alongside its original — exactly the delivery step's
      // behaviour.
      WireEntry e{.src = v,
                  .dst = dst,
                  .dst_port = reverse[out.port],
                  .batch_pos = bp,
                  .due = verdict.delay != 0 ? r + verdict.delay : 0,
                  .birth_round = r,
                  .msg = out.msg,
                  .copy = 0};
      exchange_->Push(s, to, e);
      if (verdict.duplicate) {
        e.copy = 1;
        exchange_->Push(s, to, e);
      }
    }
  }
}

void ShardedEngine::Receive(std::uint32_t s, Round r) {
  Shard& shard = *shards_[s];
  Scheduler& sched = *shard.scheduler;
  Auditor* const auditor = shard.auditor.get();

  // Late arrivals first, exactly like a one-shard round: delayed
  // messages parked here fall due before this round's fresh sends, in
  // canonical key order.
  sched.DrainDelayed(r);

  // Take this shard's inbound streams (inbound[s] stays empty: local
  // sends skip the exchange). Each producer emitted in ascending
  // (src, batch_pos, copy) order and shards own disjoint node sets, so
  // stepping local wakers and remote stream heads by minimum source
  // reproduces a one-shard delivery sweep's global order exactly.
  const std::uint32_t k = partition_->NumShards();
  for (std::uint32_t from = 0; from < k; ++from) {
    if (from != s) exchange_->DrainInto(from, s, shard.inbound[from]);
  }
  std::vector<std::size_t>& pos = shard.merge_pos;
  pos.assign(k, 0);
  std::size_t wi = 0;  // next local waker in sched.staged_
  for (;;) {
    std::uint32_t pick = k;
    NodeIndex best_src = kInvalidNode;
    for (std::uint32_t from = 0; from < k; ++from) {
      if (pos[from] >= shard.inbound[from].size()) continue;
      const NodeIndex src = shard.inbound[from][pos[from]].src;
      if (pick == k || src < best_src) {
        pick = from;
        best_src = src;
      }
    }
    if (wi < sched.staged_.size() &&
        (pick == k || sched.staged_[wi] < best_src)) {
      // A local sender: the serial delivery step for its batch (it skips
      // the cross-shard sends, already metered and on the wire).
      sched.DeliverBatch<true>(sched.staged_[wi++], nullptr);
      continue;
    }
    if (pick == k) break;
    const WireEntry& e = shard.inbound[pick][pos[pick]++];
    if (e.due != 0) {
      // Adversary-delayed: park at the receiver under the canonical key.
      sched.Park(Scheduler::DelayedMessage{.due = e.due,
                                           .birth_round = e.birth_round,
                                           .src = e.src,
                                           .batch_pos = e.batch_pos,
                                           .dst = e.dst,
                                           .dst_port = e.dst_port,
                                           .msg = e.msg,
                                           .copy = e.copy});
      continue;
    }
    // Sleeping-model loss, charged to the sender. The charge lands in the
    // *receiver* shard's metrics (only this shard knows the target
    // slept); summation at merge time restores the per-node total. A
    // fresh adversary duplicate (copy == 1) of a lost send is never
    // materialized in the serial engine — the original's single drop is
    // the only charge — so its wire entry vanishes silently.
    if (!sched.Deliver<true>(e.src, e.dst, e.dst_port, e.msg) &&
        e.copy == 0) {
      ++shard.metrics.Node(e.src).messages_dropped;
      if (auditor != nullptr) auditor->OnDrop(r, e.src, /*injected=*/false);
    }
  }
}

FaultStats ShardedEngine::InjectedFaults() const {
  FaultStats total;
  for (const auto& shard : shards_) {
    if (shard) total.MergeFrom(shard->scheduler->InjectedFaults());
  }
  return total;
}

std::uint64_t ShardedEngine::CountUnfinished() const {
  std::uint64_t unfinished = 0;
  for (std::uint32_t s = 0; s < shards_.size(); ++s) {
    // A shard that failed before constructing (K >= 2 only) leaves every
    // node unfinished.
    unfinished += shards_[s] ? shards_[s]->scheduler->CountUnfinished()
                             : partition_->NodesOf(s).size();
  }
  return unfinished;
}

NodeIndex ShardedEngine::FirstUnfinishedNode() const {
  NodeIndex first = kInvalidNode;
  for (std::uint32_t s = 0; s < shards_.size(); ++s) {
    if (shards_[s]) {
      first = std::min(first, shards_[s]->scheduler->FirstUnfinishedNode());
    } else if (!partition_->NodesOf(s).empty()) {
      first = std::min(first, partition_->NodesOf(s).front());
    }
  }
  return first;
}

void ShardedEngine::RethrowFirstNodeFailure() const {
  std::pair<NodeIndex, std::exception_ptr> first{kInvalidNode, nullptr};
  for (const auto& shard : shards_) {
    if (!shard) continue;
    const auto failure = shard->scheduler->FirstFailure();
    if (failure.first < first.first) first = failure;
  }
  if (first.second) std::rethrow_exception(first.second);
}

void ShardedEngine::CheckAwakeMeters() {
  for (const auto& shard : shards_) {
    if (shard && shard->auditor) {
      shard->auditor->CheckAwakeMeter(shard->metrics);
    }
  }
}

Simulator::AuditSummary ShardedEngine::Audit() const {
  Simulator::AuditSummary summary;
  for (const auto& shard : shards_) {
    const Auditor* a = shard ? shard->auditor.get() : nullptr;
    if (a == nullptr) continue;
    summary.audited = true;
    summary.awake_node_rounds += a->AwakeNodeRounds();
    summary.model_drops += a->ModelDrops();
    summary.violations += a->ViolationCount();
    summary.report += a->Report();
  }
  return summary;
}

}  // namespace smst
