#include "smst/runtime/simulator.h"

#include <exception>
#include <stdexcept>
#include <string>

#include "smst/faults/auditor.h"
#include "smst/runtime/sharded/engine.h"

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

void Simulator::Execute(const NodeProgram* coroutine, FlatProgram* flat) {
  if (ran_) throw std::logic_error("Simulator may run only once");
  ran_ = true;

  if (sharded_) {
    // The engine owns the per-shard adapters; it merges the per-shard
    // metrics into its totals before rethrowing shard-level failures, so
    // metrics_ is consistent on every exit path.
    try {
      sharded_->Execute(coroutine, flat);
    } catch (...) {
      sharded_->MergeMetricsInto(metrics_);
      throw;
    }
    sharded_->MergeMetricsInto(metrics_);
    sharded_->RethrowFirstNodeFailure();
    return;
  }

  if (coroutine != nullptr) {
    coroutines_ = std::make_unique<CoroutineProgram>(graph_, metrics_,
                                                     *coroutine, options_.seed);
    flat = coroutines_.get();
  }
  scheduler_->Run(*flat);
  // Rethrow failures before the never-finished check: a node that threw
  // (e.g. an Awake request the scheduler rejected) is the root cause, and
  // peers it stranded mid-protocol must not mask it with the generic
  // error below.
  if (const std::exception_ptr error = scheduler_->FirstFailure().second) {
    std::rethrow_exception(error);
  }
}

std::uint64_t Simulator::CountUnfinished() const {
  return sharded_ ? sharded_->CountUnfinished()
                  : scheduler_->CountUnfinished();
}

NodeIndex Simulator::FirstUnfinishedNode() const {
  return sharded_ ? sharded_->FirstUnfinishedNode()
                  : scheduler_->FirstUnfinishedNode();
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
