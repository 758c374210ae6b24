#include "smst/runtime/simulator.h"

#include <numeric>
#include <stdexcept>
#include <string>

#include "smst/faults/auditor.h"
#include "smst/runtime/flat/engine.h"
#include "smst/runtime/flat/runtime.h"
#include "smst/runtime/sharded/engine.h"

namespace smst {

namespace {

bool WantAuditor(AuditMode mode) {
#ifdef SMST_NO_AUDITOR
  (void)mode;
  return false;
#else
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
#endif
}

SchedulerOptions MakeSchedulerOptions(const SimulatorOptions& o,
                                      Auditor* auditor) {
  SchedulerOptions s;
  s.max_rounds = o.max_rounds;
  s.fault_plan = o.fault_plan;
  s.run_seed = o.seed;
  s.auditor = auditor;
  return s;
}

}  // namespace

const char* EngineModeName(EngineMode mode) {
  switch (mode) {
    case EngineMode::kCoroutine: return "coroutine";
    case EngineMode::kFlat: return "flat";
  }
  return "?";
}

EngineMode ParseEngineMode(const std::string& name) {
  if (name == "coroutine") return EngineMode::kCoroutine;
  if (name == "flat") return EngineMode::kFlat;
  throw std::invalid_argument("unknown engine '" + name +
                              "' (valid: coroutine, flat)");
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
  if (options_.shards > 0) {
    if (options_.trace) {
      // A sender's model-drop counts are only known receiver-side after
      // the exchange barrier, so exact per-sender trace events cannot be
      // emitted shard-locally. Tracing is a debugging feature; use the
      // serial engine for it.
      throw std::invalid_argument(
          "tracing requires the serial engine (shards = 0)");
    }
    ShardedEngineOptions e;
    e.shards = options_.shards;
    e.policy = options_.shard_policy;
    e.seed = options_.seed;
    e.max_rounds = options_.max_rounds;
    e.record_wake_times = options_.record_wake_times;
    e.fault_plan = options_.fault_plan;
    e.audit = WantAuditor(options_.audit);
    sharded_ = std::make_unique<ShardedEngine>(graph_, e);
    return;
  }
  auditor_ = WantAuditor(options_.audit) ? std::make_unique<Auditor>(graph)
                                         : nullptr;
  scheduler_ = std::make_unique<Scheduler>(
      graph, metrics_, MakeSchedulerOptions(options_, auditor_.get()));
  if (options_.trace) scheduler_->SetTraceSink(options_.trace);
}

Simulator::~Simulator() = default;

const FaultStats& Simulator::InjectedFaults() const {
  return sharded_ ? sharded_->InjectedFaults() : scheduler_->InjectedFaults();
}

void Simulator::Execute(const NodeProgram& program) {
  if (ran_) throw std::logic_error("Simulator may run only once");
  ran_ = true;
  if (options_.engine != EngineMode::kCoroutine) {
    throw std::logic_error(
        "SimulatorOptions::engine is flat, which steps FlatPrograms "
        "only; run coroutine NodePrograms with EngineMode::kCoroutine");
  }

  if (sharded_) {
    // The engine owns the per-shard contexts and runners; it merges the
    // per-shard metrics into its totals before rethrowing shard-level
    // failures, so metrics_ is consistent on every exit path.
    try {
      sharded_->Execute(program);
    } catch (...) {
      sharded_->MergeMetricsInto(metrics_);
      throw;
    }
    sharded_->MergeMetricsInto(metrics_);
    sharded_->RethrowFirstNodeFailure();
    return;
  }

  Xoshiro256 root_rng(options_.seed);
  runners_.reserve(graph_.NumNodes());
  for (NodeIndex v = 0; v < graph_.NumNodes(); ++v) {
    // Each node's private randomness is a substream keyed by its index so
    // runs are reproducible regardless of scheduling order.
    contexts_.emplace_back(graph_, v, *scheduler_, metrics_,
                           root_rng.Split(v));
  }
  for (NodeIndex v = 0; v < graph_.NumNodes(); ++v) {
    runners_.emplace_back(program(contexts_[v]));
  }
  // Start after all tasks exist: a program may run to completion
  // immediately, and starting in a second pass keeps round-1 sends of all
  // nodes registered before the first round executes.
  for (TaskRunner& r : runners_) r.Start();

  scheduler_->RunUntilIdle();

  // Rethrow failures before the never-finished check: a node that threw
  // (e.g. Scheduler::Register rejecting a bad wake from inside the Awake
  // suspend path) is the root cause, and peers it stranded mid-protocol
  // must not mask it with the generic error below.
  for (NodeIndex v = 0; v < graph_.NumNodes(); ++v) {
    runners_[v].RethrowIfFailed();
  }
}

void Simulator::ExecuteFlat(FlatProgram& program) {
  if (ran_) throw std::logic_error("Simulator may run only once");
  ran_ = true;

  if (sharded_) {
    try {
      sharded_->ExecuteFlat(program);
    } catch (...) {
      sharded_->MergeMetricsInto(metrics_);
      throw;
    }
    sharded_->MergeMetricsInto(metrics_);
    sharded_->RethrowFirstNodeFailure();
    return;
  }

  const bool faulted =
      options_.fault_plan != nullptr && !options_.fault_plan->Empty();
  if (options_.engine == EngineMode::kFlat && !auditor_ && !faulted &&
      !options_.trace) {
    // Nothing observes the event stream (no auditor, no adversary, no
    // trace), so the run can use the batched fast engine instead of the
    // scheduler (DESIGN.md §13).
    flat_engine_ = std::make_unique<FlatEngine>(graph_, metrics_, *scheduler_,
                                                options_.max_rounds);
    flat_engine_->Run(program);
    flat_engine_->RethrowFirstFailure();
    return;
  }

  std::vector<NodeIndex> nodes(graph_.NumNodes());
  std::iota(nodes.begin(), nodes.end(), NodeIndex{0});
  flat_runtime_ = std::make_unique<FlatRuntime>(*scheduler_, program,
                                                metrics_, std::move(nodes));
  flat_runtime_->StartAll();
  scheduler_->RunUntilIdle();
  flat_runtime_->RethrowFirstFailure();
}

std::uint64_t Simulator::CountUnfinished() const {
  if (sharded_) return sharded_->CountUnfinished();
  if (flat_engine_) return flat_engine_->CountUnfinished();
  if (flat_runtime_) return flat_runtime_->CountUnfinished();
  std::uint64_t unfinished = 0;
  for (const TaskRunner& r : runners_) {
    if (!r.Done()) ++unfinished;
  }
  return unfinished;
}

NodeIndex Simulator::FirstUnfinishedNode() const {
  if (sharded_) return sharded_->FirstUnfinishedNode();
  if (flat_engine_) return flat_engine_->FirstUnfinishedNode();
  if (flat_runtime_) return flat_runtime_->FirstUnfinishedNode();
  for (NodeIndex v = 0; v < graph_.NumNodes(); ++v) {
    if (!runners_[v].Done()) return v;
  }
  return kInvalidNode;
}

Simulator::AuditSummary Simulator::Audit() const {
  if (sharded_) return sharded_audit_;
  AuditSummary s;
  if (auditor_) {
    s.audited = true;
    s.awake_node_rounds = auditor_->AwakeNodeRounds();
    s.model_drops = auditor_->ModelDrops();
    s.violations = auditor_->ViolationCount();
    s.report = auditor_->Report();
  }
  return s;
}

void Simulator::FillAuditSummary(RunOutcome& out) const {
  const AuditSummary s = Audit();
  if (!s.audited) return;
  out.audited_awake_node_rounds = s.awake_node_rounds;
  out.audited_model_drops = s.model_drops;
  out.audit_violations = s.violations;
}

void Simulator::FinishRun() {
  const NodeIndex unfinished = FirstUnfinishedNode();
  if (unfinished != kInvalidNode) {
    throw std::runtime_error(
        "node " + std::to_string(unfinished) +
        " never finished (suspended with an empty wake queue)");
  }
  if (sharded_) {
    const ShardedEngine::AuditTotals t = sharded_->CheckAndSummarizeAudit();
    sharded_audit_ = AuditSummary{t.audited, t.awake_node_rounds,
                                  t.model_drops, t.violations, t.report};
    if (sharded_audit_.audited && sharded_audit_.violations != 0) {
      throw std::runtime_error(sharded_audit_.report);
    }
    return;
  }
  if (auditor_) {
    // Model conformance is part of the fault-free contract: a clean run
    // must also be a clean audit (builds with SMST_AUDIT make every
    // existing test a conformance test this way).
    auditor_->CheckAwakeMeter(metrics_);
    if (!auditor_->Clean()) {
      throw std::runtime_error(auditor_->Report());
    }
  }
}

void Simulator::Run(const NodeProgram& program) {
  Execute(program);
  FinishRun();
}

void Simulator::Run(FlatProgram& program) {
  ExecuteFlat(program);
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
  } catch (const std::exception& e) {
    // Any other failure a fault drove the algorithm into (defensive
    // checks on malformed protocol state) counts as a crashed run.
    out.status = RunStatus::kCrashedPartition;
    out.detail = e.what();
  }
}

RunOutcome Simulator::FinishOutcome(RunOutcome out) {
  const std::uint64_t unfinished = CountUnfinished();
  out.unfinished_nodes = unfinished;
  if (out.status == RunStatus::kCompleted && unfinished > 0) {
    out.status = RunStatus::kCrashedPartition;
    out.detail = std::to_string(unfinished) +
                 " node program(s) never finished (crash-stopped nodes "
                 "and the peers they stranded)";
  }
  out.last_round = metrics_.LastRound();
  out.faults = InjectedFaults();
  if (sharded_) {
    const ShardedEngine::AuditTotals t = sharded_->CheckAndSummarizeAudit();
    sharded_audit_ = AuditSummary{t.audited, t.awake_node_rounds,
                                  t.model_drops, t.violations, t.report};
  } else if (auditor_) {
    auditor_->CheckAwakeMeter(metrics_);
  }
  FillAuditSummary(out);
  return out;
}

RunOutcome Simulator::RunToOutcome(const NodeProgram& program) {
  RunOutcome out;
  try {
    Execute(program);
  } catch (...) {
    ClassifyFailure(out);
  }
  return FinishOutcome(out);
}

RunOutcome Simulator::RunToOutcome(FlatProgram& program) {
  RunOutcome out;
  try {
    ExecuteFlat(program);
  } catch (...) {
    ClassifyFailure(out);
  }
  return FinishOutcome(out);
}

}  // namespace smst
