#include "smst/runtime/sharded/engine.h"

#include <cassert>
#include <coroutine>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "smst/faults/auditor.h"
#include "smst/faults/run_outcome.h"
#include "smst/util/prng.h"

// Same convention as scheduler.cpp: auditor hooks are a null check by
// default and vanish under -DSMST_NO_AUDITOR.
#ifdef SMST_NO_AUDITOR
#define SMST_SHARD_AUDIT(aud, call) ((void)0)
#else
#define SMST_SHARD_AUDIT(aud, call) \
  do {                              \
    if (aud) {                      \
      (aud)->call;                  \
    }                               \
  } while (0)
#endif

namespace smst {

ShardedEngine::Shard::Shard(const WeightedGraph& graph,
                            const ShardedEngineOptions& options)
    : metrics(graph.NumNodes()),
      auditor(options.audit ? std::make_unique<Auditor>(graph) : nullptr),
      scheduler(std::make_unique<Scheduler>(
          graph, metrics,
          SchedulerOptions{options.max_rounds, options.fault_plan,
                           options.seed, auditor.get()})) {
  if (options.record_wake_times) metrics.EnableWakeTimes();
}

ShardedEngine::ShardedEngine(const WeightedGraph& graph,
                             ShardedEngineOptions options)
    : graph_(graph),
      options_(options),
      partition_(graph.NumNodes(), options.shards, options.policy),
      exchange_(partition_.NumShards()),
      merged_metrics_(graph.NumNodes()) {
  const std::uint32_t k = partition_.NumShards();
  // Slots only; each worker constructs its own Shard in ShardMain so
  // the per-shard O(n) state is built in parallel, owner-thread-local.
  shards_.resize(k);
  errors_.resize(k);
  next_round_.assign(k, kMaxRound);
  if (options_.record_wake_times) merged_metrics_.EnableWakeTimes();
}

ShardedEngine::~ShardedEngine() {
  // Tear shards down on their own threads (one per shard, K > 1 only).
  // Destroying a shard releases ~n/K coroutine frames and context
  // chunks into the destroying thread's pool arena; doing that on
  // per-shard reaper threads both parallelizes teardown and — because
  // each reaper donates its free lists to the pool registry on exit,
  // one donation entry per shard — leaves the blocks where the *next*
  // run's K workers each adopt an even share. Freeing on the main
  // thread would instead strand every block in the main arena, and
  // repeated sharded runs in one process would re-fault fresh slab
  // pages every time.
  if (shards_.size() > 1) {
    std::vector<std::thread> reapers;
    reapers.reserve(shards_.size());
    for (auto& shard : shards_) {
      if (shard) reapers.emplace_back([&shard] { shard.reset(); });
    }
    for (std::thread& t : reapers) t.join();
  }
}

void ShardedEngine::Execute(const NodeProgram& program) {
  ExecuteImpl(&program, nullptr);
}

void ShardedEngine::ExecuteFlat(FlatProgram& program) {
  ExecuteImpl(nullptr, &program);
}

void ShardedEngine::ExecuteImpl(const NodeProgram* coro, FlatProgram* flat) {
  if (ran_) throw std::logic_error("ShardedEngine may run only once");
  ran_ = true;

  const std::uint32_t k = partition_.NumShards();
  barrier_.emplace(static_cast<std::ptrdiff_t>(k), RoundReduce{this});

  std::vector<std::thread> workers;
  workers.reserve(k);
  for (std::uint32_t s = 0; s < k; ++s) {
    workers.emplace_back([this, s, coro, flat] { ShardMain(s, coro, flat); });
  }
  for (std::thread& t : workers) t.join();

  // Merge in fixed shard order so the result is a pure function of the
  // per-shard states: every counter is a sum, round and message-bit
  // peaks are maxima, probes are key-summed, wake times are owner-only.
  for (const auto& shard : shards_) {
    if (!shard) continue;  // failed before constructing; see errors_
    merged_metrics_.MergeFrom(shard->metrics);
    merged_faults_.MergeFrom(shard->scheduler->InjectedFaults());
  }
  // Shard-level failures (watchdog, allocation failure) rethrow
  // lowest-shard-first — deterministic, and for the watchdog identical on
  // every shard anyway.
  for (const std::exception_ptr& e : errors_) {
    if (e) std::rethrow_exception(e);
  }
}

void ShardedEngine::ShardMain(std::uint32_t s, const NodeProgram* coro,
                              FlatProgram* flat) {
  try {
    // Build this shard's state and spawn its node programs on the worker
    // thread itself: the Metrics/Scheduler arrays, the contexts, and the
    // coroutine frames are then allocated (and first-touched) by the
    // thread that will use them, and the K shards set up in parallel.
    // Each node's randomness is the same seed-derived substream the
    // serial engine would hand it: Split is a pure function of
    // (seed, node index).
    shards_[s] = std::make_unique<Shard>(graph_, options_);
    Shard& shard = *shards_[s];
    shard.inbound.resize(partition_.NumShards());
    const std::vector<NodeIndex>& local = partition_.NodesOf(s);
    shard.cross_ports.assign(graph_.NumNodes(), 0);
    for (NodeIndex v : local) {
      for (const Port& port : graph_.PortsOf(v)) {
        if (partition_.Owner(port.neighbor) != s) {
          shard.cross_ports[v] = 1;
          break;
        }
      }
    }
    if (flat != nullptr) {
      // Flat form: one FlatRuntime drives this shard's partition of the
      // shared program; its StartAll registers the same first wakes the
      // coroutine spawn-then-Start two-pass would.
      shard.flat = std::make_unique<FlatRuntime>(*shard.scheduler, *flat,
                                                 shard.metrics, local);
      shard.flat->StartAll();
    } else {
      Xoshiro256 root_rng(options_.seed);
      shard.runners.reserve(local.size());
      for (NodeIndex v : local) {
        shard.contexts.emplace_back(graph_, v, *shard.scheduler,
                                    shard.metrics, root_rng.Split(v));
      }
      for (NodeContext& ctx : shard.contexts) {
        shard.runners.emplace_back((*coro)(ctx));
      }
      for (TaskRunner& r : shard.runners) r.Start();
    }
    for (;;) {
      next_round_[s] = shard.scheduler->NextPendingRound();
      barrier_->arrive_and_wait();  // completion computes global_round_
      if (abort_.load(std::memory_order_acquire)) return;
      const Round r = global_round_;
      if (r == kMaxRound) break;  // every shard idle: clean stop
      if (r > options_.max_rounds) {
        // Same trip point and message as the serial engine; every shard
        // throws this identically.
        throw NonTerminationError("round watchdog tripped at round " +
                                  std::to_string(r) + " (max " +
                                  std::to_string(options_.max_rounds) + ")");
      }
      shard.scheduler->StageRound(r);  // possibly zero local wakers
      CollectSends(s, r);
      barrier_->arrive_and_wait();  // all sends published
      if (abort_.load(std::memory_order_acquire)) return;
      ReceiveAndResume(s, r);
    }
    // Clean stop: expire still-parked delayed messages so the model-drop
    // books balance (mirrors the serial end-of-run drain).
    shard.scheduler->DrainDelayed(kMaxRound);
  } catch (...) {
    errors_[s] = std::current_exception();
    // Release the others: the drop counts as this shard's arrival for
    // the phase it abandoned, and the flag (published before the drop)
    // tells them to stop at their next barrier exit.
    abort_.store(true, std::memory_order_release);
    barrier_->arrive_and_drop();
  }
}

void ShardedEngine::CollectSends(std::uint32_t s, Round r) {
  // Pre-barrier half of the round: publish the *cross-shard* sends to
  // the exchange. Shard-local sends are handled entirely by this
  // shard's own post-barrier scan (ReceiveAndResume), where they can
  // interleave with remote arrivals in canonical source order —
  // pushing them through a ring would only add copies.
  //
  // Each send is metered (count, bits, audit OnSend) in the phase that
  // consumes it — cross-shard here, local in the delivery scan — so
  // this pass stays a cheap read-only sweep when few edges cross
  // shards. Metrics are commutative sums and the auditor's books are
  // order-free within a round, so the split cannot change any total.
  //
  // Fault verdicts likewise fire exactly once per send (OnMessage
  // counts what it injects): here for cross-shard sends, because a
  // drop/delay/duplicate must be resolved before the entry goes on the
  // wire, and in the delivery scan for local sends.
  Shard& shard = *shards_[s];
  Scheduler& sched = *shard.scheduler;
  Auditor* const auditor = shard.auditor.get();
  const bool faulty = sched.faults_.Active();
  for (const NodeIndex v : sched.staged_) {
    if (!shard.cross_ports[v]) continue;  // all ports internal
    const PendingWake* w = sched.wakes_[v];
    const Port* ports = graph_.PortsOf(w->node).data();
    const std::uint32_t* reverse =
        sched.reverse_ports_.data() + sched.port_offset_[w->node];
    for (std::uint32_t bp = 0; bp < w->sends.size(); ++bp) {
      const OutMessage& out = w->sends[bp];
      const Port& port = ports[out.port];
      const NodeIndex dst = port.neighbor;
      const std::uint32_t to = partition_.Owner(dst);
      if (to == s) continue;  // metered and delivered post-barrier
      NodeMetrics& nm = shard.metrics.Node(w->node);
      ++nm.messages_sent;
      const std::uint64_t bits = out.msg.BitSize();
      nm.bits_sent += bits;
      shard.metrics.RecordMessageBits(bits);
      SMST_SHARD_AUDIT(auditor, OnSend(r, w->node, out.port, out.msg));
      WireEntry e{w->node, dst,          reverse[out.port], bp,
                  /*due=*/0, /*birth=*/r, /*copy=*/0,        out.msg};
      if (faulty) {
        const FaultSession::MessageVerdict verdict =
            sched.faults_.OnMessage(w->node, out.port, r);
        if (verdict.drop) {
          SMST_SHARD_AUDIT(auditor, OnDrop(r, w->node, /*injected=*/true));
          continue;
        }
        // A delayed entry carries its absolute due round; the receiver
        // shard parks it. A duplicate is one extra adjacent copy, fresh
        // or delayed alongside its original — exactly the serial
        // scheduler's behaviour.
        if (verdict.delay != 0) e.due = r + verdict.delay;
        exchange_.Push(s, to, e);
        if (verdict.duplicate) {
          e.copy = 1;
          exchange_.Push(s, to, e);
        }
        continue;
      }
      exchange_.Push(s, to, e);
    }
  }
}

void ShardedEngine::ReceiveAndResume(std::uint32_t s, Round r) {
  Shard& shard = *shards_[s];
  Scheduler& sched = *shard.scheduler;
  Auditor* const auditor = shard.auditor.get();

  // Late arrivals first, exactly like the serial round: delayed messages
  // parked here fall due before this round's fresh sends, in canonical
  // key order.
  sched.DrainDelayed(r);

  // Pull this shard's inbound streams (the self ring is never used:
  // local sends skip the exchange). Each producer emitted in ascending
  // (src, batch_pos, copy) order and shards own disjoint node sets, so
  // stepping local wakers and remote stream heads by minimum source
  // reproduces the serial delivery loop's global order exactly.
  const std::uint32_t k = partition_.NumShards();
  for (std::uint32_t from = 0; from < k; ++from) {
    shard.inbound[from].clear();
    if (from != s) exchange_.DrainInto(from, s, shard.inbound[from]);
  }
  std::vector<std::size_t>& pos = shard.merge_pos;
  pos.assign(k, 0);
  const bool faulty = sched.faults_.Active();
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
    const bool local = wi < sched.staged_.size() &&
                       (pick == k || sched.staged_[wi] < best_src);
    if (local) {
      // A local sender: run the serial delivery loop body for its batch.
      // Cross-shard sends were metered and published pre-barrier;
      // everything else — metering, verdict, delayed parking, drop
      // accounting, delivery — happens here, bit-for-bit like
      // scheduler.cpp's DeliverAndResume.
      const PendingWake* w = sched.wakes_[sched.staged_[wi++]];
      NodeMetrics& nm = shard.metrics.Node(w->node);
      const Port* ports = graph_.PortsOf(w->node).data();
      const std::uint32_t* reverse =
          sched.reverse_ports_.data() + sched.port_offset_[w->node];
      for (std::uint32_t bp = 0; bp < w->sends.size(); ++bp) {
        const OutMessage& out = w->sends[bp];
        const Port& port = ports[out.port];
        const NodeIndex dst = port.neighbor;
        if (partition_.Owner(dst) != s) continue;  // already on the wire
        ++nm.messages_sent;
        const std::uint64_t bits = out.msg.BitSize();
        nm.bits_sent += bits;
        shard.metrics.RecordMessageBits(bits);
        SMST_SHARD_AUDIT(auditor, OnSend(r, w->node, out.port, out.msg));
        if (faulty) {
          const FaultSession::MessageVerdict verdict =
              sched.faults_.OnMessage(w->node, out.port, r);
          if (verdict.drop) {
            SMST_SHARD_AUDIT(auditor, OnDrop(r, w->node, /*injected=*/true));
            continue;
          }
          if (verdict.delay != 0) {
            sched.delayed_.push_back(
                Scheduler::DelayedMessage{r + verdict.delay, r, w->node, bp,
                                          /*copy=*/0, dst, reverse[out.port],
                                          out.msg});
            std::push_heap(sched.delayed_.begin(), sched.delayed_.end(),
                           std::greater<>{});
            if (verdict.duplicate) {
              sched.delayed_.push_back(
                  Scheduler::DelayedMessage{r + verdict.delay, r, w->node, bp,
                                            /*copy=*/1, dst, reverse[out.port],
                                            out.msg});
              std::push_heap(sched.delayed_.begin(), sched.delayed_.end(),
                             std::greater<>{});
            }
            continue;
          }
          PendingWake* target = sched.AwakeNow(dst);
          if (target == nullptr) {
            ++nm.messages_dropped;
            SMST_SHARD_AUDIT(auditor, OnDrop(r, w->node, /*injected=*/false));
            continue;
          }
          target->inbox.push_back(InMessage{reverse[out.port], out.msg});
          SMST_SHARD_AUDIT(auditor, OnDeliver(r, w->node, dst, out.msg));
          if (verdict.duplicate) {
            target->inbox.push_back(InMessage{reverse[out.port], out.msg});
            SMST_SHARD_AUDIT(auditor, OnDeliver(r, w->node, dst, out.msg));
          }
          continue;
        }
        PendingWake* target = sched.AwakeNow(dst);
        if (target == nullptr) {
          ++nm.messages_dropped;
          SMST_SHARD_AUDIT(auditor, OnDrop(r, w->node, /*injected=*/false));
          continue;
        }
        target->inbox.push_back(InMessage{reverse[out.port], out.msg});
        SMST_SHARD_AUDIT(auditor, OnDeliver(r, w->node, dst, out.msg));
      }
      continue;
    }
    if (pick == k) break;
    const WireEntry& e = shard.inbound[pick][pos[pick]++];
    if (e.due != 0) {
      // Adversary-delayed: park at the receiver under the canonical key.
      sched.delayed_.push_back(Scheduler::DelayedMessage{
          e.due, e.birth_round, e.src, e.batch_pos, e.copy, e.dst, e.dst_port,
          e.msg});
      std::push_heap(sched.delayed_.begin(), sched.delayed_.end(),
                     std::greater<>{});
      continue;
    }
    PendingWake* target = sched.AwakeNow(e.dst);
    if (target == nullptr) {
      // Sleeping-model loss, charged to the sender. The charge lands in
      // the *receiver* shard's metrics (only this shard knows the
      // target slept); summation at merge time restores the per-node
      // total. A fresh adversary duplicate (copy == 1) of a lost send is
      // never materialized in the serial engine — the original's single
      // drop is the only charge — so its wire entry vanishes silently.
      if (e.copy == 0) {
        ++shard.metrics.Node(e.src).messages_dropped;
        SMST_SHARD_AUDIT(auditor, OnDrop(r, e.src, /*injected=*/false));
      }
      continue;
    }
    target->inbox.push_back(InMessage{e.dst_port, e.msg});
    SMST_SHARD_AUDIT(auditor, OnDeliver(r, e.src, e.dst, e.msg));
  }

  // Resume in canonical (ascending node) order; all staged wakers are
  // local, so this never touches another shard's coroutines.
  for (const NodeIndex v : sched.staged_) {
    PendingWake* w = sched.wakes_[v];
    NodeMetrics& nm = shard.metrics.Node(w->node);
    ++nm.awake_rounds;
    if (shard.metrics.WakeTimesEnabled()) nm.wake_times.push_back(r);
    if (w->handle_address == nullptr) {
      // Flat node: the shard's FlatRuntime (the scheduler's installed
      // stepper) advances it in place; `w` stays valid — it lives in the
      // runtime's stable slot, not a coroutine frame.
      sched.flat_stepper_->Step(*w);
      continue;
    }
    auto handle = std::coroutine_handle<>::from_address(w->handle_address);
    // After resume(), `w` may dangle (the frame advanced past the
    // awaitable); do not touch it again.
    handle.resume();
  }
}

void ShardedEngine::MergeMetricsInto(Metrics& target) const {
  target.MergeFrom(merged_metrics_);
}

std::uint64_t ShardedEngine::CountUnfinished() const {
  std::uint64_t unfinished = 0;
  for (std::uint32_t s = 0; s < shards_.size(); ++s) {
    const Shard* shard = shards_[s].get();
    if (shard == nullptr) {
      // Failed before constructing: every local node is unfinished.
      unfinished += partition_.NodesOf(s).size();
      continue;
    }
    if (shard->flat) {
      unfinished += shard->flat->CountUnfinished();
      continue;
    }
    for (const TaskRunner& r : shard->runners) {
      if (!r.Done()) ++unfinished;
    }
  }
  return unfinished;
}

NodeIndex ShardedEngine::FirstUnfinishedNode() const {
  for (NodeIndex v = 0; v < graph_.NumNodes(); ++v) {
    const Shard* shard = shards_[partition_.Owner(v)].get();
    const std::uint32_t i = partition_.LocalIndex(v);
    // A shard that aborted before spawning (or constructing) has no
    // runners; treat its nodes as unfinished.
    if (shard == nullptr) return v;
    if (shard->flat) {
      if (!shard->flat->DoneAt(i)) return v;
      continue;
    }
    if (i >= shard->runners.size() || !shard->runners[i].Done()) {
      return v;
    }
  }
  return kInvalidNode;
}

void ShardedEngine::RethrowFirstNodeFailure() const {
  for (NodeIndex v = 0; v < graph_.NumNodes(); ++v) {
    const Shard* shard = shards_[partition_.Owner(v)].get();
    if (shard == nullptr) continue;
    const std::uint32_t i = partition_.LocalIndex(v);
    if (shard->flat) {
      shard->flat->RethrowIfFailedAt(i);
      continue;
    }
    if (i < shard->runners.size()) shard->runners[i].RethrowIfFailed();
  }
}

ShardedEngine::AuditTotals ShardedEngine::CheckAndSummarizeAudit() {
  AuditTotals totals;
  for (const auto& shard : shards_) {
    Auditor* a = shard ? shard->auditor.get() : nullptr;
    if (a == nullptr) continue;
    totals.audited = true;
    a->CheckAwakeMeter(shard->metrics);
    totals.awake_node_rounds += a->AwakeNodeRounds();
    totals.model_drops += a->ModelDrops();
    totals.violations += a->ViolationCount();
    totals.report += a->Report();
  }
  return totals;
}

}  // namespace smst
