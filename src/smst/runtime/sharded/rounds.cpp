// The Simulator's round phases on K >= 2 shards.
//
// Each shard worker thread owns a Scheduler over that shard's own nodes
// (lanes, wake queue, delayed-message parking, fault session, optional
// auditor) plus its metrics and, for a coroutine program, its
// CoroutineProgram adapter. A round proceeds in barrier-separated phases:
//
//   select   every shard publishes its next pending round; the barrier's
//            completion reduces them to the global round R = min
//   stage    each shard pops its round-R wakers (canonical ascending
//            node order), which marks them awake
//   collect  each shard meters its nodes' sends and publishes the
//            *cross-shard* ones (fault verdicts applied sender-side)
//            through the ShardExchange; shard-local sends wait for the
//            delivery scan
//   barrier
//   receive  each shard drains its delayed heap for round R, then runs
//            one scan that steps its local wakers and its remote inbound
//            streams in ascending source order — local senders through
//            the Scheduler's own delivery step, remote entries to awake
//            targets (charging model drops receiver-side)
//   step     each shard runs the Scheduler's step sweep over its wakers
//
// Determinism: round staging order is canonical, fault verdicts are pure
// hashes of event coordinates, per-shard metrics/fault counters merge by
// commutative sums (maxima for round/bit peaks) in fixed shard order,
// and the delayed heap orders by the canonical message key — so a run's
// results, metrics, and outcome are bit-identical to the one-shard run
// for every shard count. DESIGN.md §12 gives the full argument.
//
// Not supported with K >= 2: TraceSink (per-sender drop counts are only
// known receiver-side after the barrier; the constructor rejects it).
#include <algorithm>

#include "smst/runtime/simulator.h"

namespace smst {

void Simulator::RoundReduce::operator()() noexcept {
  Round m = kMaxRound;
  for (Round r : sim->next_round_) m = std::min(m, r);
  sim->global_round_ = m;
}

void Simulator::ShardMain(std::uint32_t s, const NodeProgram* coroutine,
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
    for (const NodeIndex v : partition.NodesOf(s)) {
      const auto ports = graph_.PortsOf(v);
      boundary_[v] = std::any_of(ports.begin(), ports.end(),
                                 [&](const Port& port) {
                                   return partition.Owner(port.neighbor) != s;
                                 });
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

void Simulator::CollectSends(std::uint32_t s, Round r) {
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
  for (const NodeIndex v : sched.staged_) {
    if (!boundary_[v]) continue;  // all ports internal
    const SendLane& sends = sched.sends_[sched.Lane(v)];
    NodeMetrics& meter = sched.metrics_.Node(v);
    const Port* ports = graph_.PortsOf(v).data();
    const std::uint32_t* reverse = graph_.ReversePortsOf(v).data();
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

void Simulator::Receive(std::uint32_t s, Round r) {
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
      // Adversary-delayed: park at the receiver, as it arrived; the
      // delayed heap orders it by its canonical key.
      sched.Park(e);
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

}  // namespace smst
