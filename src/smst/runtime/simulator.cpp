#include "smst/runtime/simulator.h"

#include <algorithm>
#include <new>
#include <stdexcept>
#include <string>
#include <system_error>
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

Simulator::Shard::Shard(const WeightedGraph& graph, Metrics* run_metrics,
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

Simulator::Simulator(const WeightedGraph& graph, SimulatorOptions options)
    : graph_(graph), options_(std::move(options)), metrics_(graph.NumNodes()) {
  if (options_.record_wake_times) metrics_.EnableWakeTimes();
  if (options_.fault_plan != nullptr) {
    // A @NODE filter naming no node of this graph would match nothing and
    // silently run the rule as a no-op.
    for (const FaultRule& rule : options_.fault_plan->rules) {
      if (rule.node != kInvalidNode && rule.node >= graph.NumNodes()) {
        throw std::invalid_argument(
            "fault rule '" + FaultPlan{0, {rule}}.ToString() +
            "' targets node " + std::to_string(rule.node) +
            ", but the graph has n = " + std::to_string(graph.NumNodes()) +
            " nodes");
      }
    }
  }
  const std::uint32_t k =
      ShardPartition::ClampShards(graph.NumNodes(), options_.shards);
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
  boundary_.resize(graph.NumNodes());
  next_round_.assign(k, kMaxRound);
}

Simulator::~Simulator() = default;

FlatProgram& Simulator::ProgramOf(Shard& shard, std::uint32_t s,
                                  const NodeProgram* coroutine,
                                  FlatProgram* flat) {
  if (coroutine == nullptr) return *flat;
  shard.coroutines = std::make_unique<CoroutineProgram>(
      graph_, *coroutine, options_.seed,
      partition_ ? &*partition_ : nullptr, s);
  return *shard.coroutines;
}

void Simulator::Execute(const NodeProgram* coroutine, FlatProgram* flat) {
  if (ran_) throw std::logic_error("Simulator may run only once");
  ran_ = true;
  if (!partition_) {
    // One shard: the round loop itself, on the calling thread.
    Shard& shard = *shards_[0];
    shard.scheduler->Run(ProgramOf(shard, 0, coroutine, flat));
  } else {
    const std::uint32_t k = partition_->NumShards();
    barrier_.emplace(static_cast<std::ptrdiff_t>(k), RoundReduce{this});
    std::vector<std::thread> workers;
    workers.reserve(k);
    try {
      for (std::uint32_t s = 0; s < k; ++s) {
        workers.emplace_back(
            [this, s, coroutine, flat] { ShardMain(s, coroutine, flat); });
      }
    } catch (...) {
      // A worker could not start (the host is out of threads or address
      // space). Release the started ones: the flag stops them at their
      // first barrier exit, where one drop per missing worker stands in
      // for its arrival. Then join them and rethrow.
      abort_.store(true, std::memory_order_release);
      for (std::size_t s = workers.size(); s < k; ++s) {
        barrier_->arrive_and_drop();
      }
      for (std::thread& t : workers) t.join();
      throw;
    }
    for (std::thread& t : workers) t.join();
    // Merge in fixed shard order so the result is a pure function of the
    // per-shard states: every counter is a sum, round and message-bit
    // peaks are maxima, wake times are owner-only.
    for (const auto& shard : shards_) {
      if (shard) metrics_.MergeFrom(shard->metrics);
    }
    // Run-level failures (watchdog, allocation failure) rethrow
    // lowest-shard-first — deterministic, and for the watchdog identical
    // on every shard anyway.
    for (const std::exception_ptr& e : errors_) {
      if (e) std::rethrow_exception(e);
    }
  }
  // Rethrow failures before the never-finished check: a node that threw
  // (e.g. an Awake request the scheduler rejected) is the root cause, and
  // peers it stranded mid-protocol must not mask it with the generic
  // error in FinishRun.
  std::pair<NodeIndex, std::exception_ptr> first{kInvalidNode, nullptr};
  for (const auto& shard : shards_) {
    if (!shard) continue;
    const auto failure = shard->scheduler->FirstFailure();
    if (failure.first < first.first) first = failure;
  }
  if (first.second) std::rethrow_exception(first.second);
}

FaultStats Simulator::InjectedFaults() const {
  FaultStats total;
  for (const auto& shard : shards_) {
    if (shard) total.MergeFrom(shard->scheduler->InjectedFaults());
  }
  return total;
}

Simulator::AuditSummary Simulator::Audit() const {
  AuditSummary summary;
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

Simulator::AuditSummary Simulator::CheckAudit() {
  for (const auto& shard : shards_) {
    if (shard && shard->auditor) {
      shard->auditor->CheckAwakeMeter(shard->metrics);
    }
  }
  return Audit();
}

void Simulator::FinishRun() {
  NodeIndex unfinished = kInvalidNode;
  for (std::uint32_t s = 0; s < shards_.size(); ++s) {
    // A shard that failed before constructing (K >= 2 only) leaves every
    // node unfinished.
    if (shards_[s]) {
      unfinished =
          std::min(unfinished, shards_[s]->scheduler->FirstUnfinishedNode());
    } else if (!partition_->NodesOf(s).empty()) {
      unfinished = std::min(unfinished, partition_->NodesOf(s).front());
    }
  }
  if (unfinished != kInvalidNode) {
    throw std::runtime_error(
        "node " + std::to_string(unfinished) +
        " never finished (suspended with an empty wake queue)");
  }
  // Model conformance is part of the fault-free contract: a clean run
  // must also be a clean audit (builds with SMST_AUDIT make every
  // existing test a conformance test this way).
  const AuditSummary audit = CheckAudit();
  if (audit.violations != 0) throw std::runtime_error(audit.report);
}

void Simulator::Run(const NodeProgram& program) {
  Execute(&program, nullptr);
  FinishRun();
}

void Simulator::Run(FlatProgram& program) {
  Execute(nullptr, &program);
  FinishRun();
}

void Simulator::ClassifyFailure(RunOutcome& out) {
  try {
    throw;
  } catch (const NonTerminationError& e) {
    out.status = RunStatus::kNonTermination;
    out.detail = e.what();
  } catch (const ProtocolStallError& e) {
    out.status = RunStatus::kCrashedPartition;
    out.detail = e.what();
  } catch (const std::logic_error&) {
    throw;  // a programming bug, not a fault effect
  } catch (const std::system_error&) {
    throw;  // the host (a worker thread that could not start), not the run
  } catch (const std::bad_alloc&) {
    throw;  // the host is out of memory, not a fault effect
  } catch (const std::exception& e) {
    // Any other failure a fault drove the algorithm into (defensive
    // checks on malformed protocol state) counts as a crashed run.
    out.status = RunStatus::kCrashedPartition;
    out.detail = e.what();
  }
}

RunOutcome Simulator::FinishOutcome(RunOutcome out) {
  std::uint64_t unfinished = 0;
  for (std::uint32_t s = 0; s < shards_.size(); ++s) {
    unfinished += shards_[s] ? shards_[s]->scheduler->CountUnfinished()
                             : partition_->NodesOf(s).size();
  }
  out.unfinished_nodes = unfinished;
  if (out.status == RunStatus::kCompleted && unfinished > 0) {
    out.status = RunStatus::kCrashedPartition;
    out.detail = std::to_string(unfinished) +
                 " node program(s) never finished (crash-stopped nodes "
                 "and the peers they stranded)";
  }
  out.last_round = metrics_.LastRound();
  out.faults = InjectedFaults();
  const AuditSummary audit = CheckAudit();
  if (audit.audited) {
    out.audited_awake_node_rounds = audit.awake_node_rounds;
    out.audited_model_drops = audit.model_drops;
    out.audit_violations = audit.violations;
  }
  return out;
}

RunOutcome Simulator::RunToOutcome(const NodeProgram& program) {
  RunOutcome out;
  try {
    Execute(&program, nullptr);
  } catch (...) {
    ClassifyFailure(out);
  }
  return FinishOutcome(out);
}

RunOutcome Simulator::RunToOutcome(FlatProgram& program) {
  RunOutcome out;
  try {
    Execute(nullptr, &program);
  } catch (...) {
    ClassifyFailure(out);
  }
  return FinishOutcome(out);
}

}  // namespace smst
