#include "smst/runtime/simulator.h"

#include <stdexcept>
#include <string>

#include "smst/runtime/sharded/engine.h"

namespace smst {

Simulator::Simulator(const WeightedGraph& graph, SimulatorOptions options)
    : metrics_(graph.NumNodes()) {
  if (options.record_wake_times) metrics_.EnableWakeTimes();
  if (options.fault_plan != nullptr) {
    // A @NODE filter naming no node of this graph would match nothing and
    // silently run the rule as a no-op.
    for (const FaultRule& rule : options.fault_plan->rules) {
      if (rule.node != kInvalidNode && rule.node >= graph.NumNodes()) {
        throw std::invalid_argument(
            "fault rule '" + FaultPlan{0, {rule}}.ToString() +
            "' targets node " + std::to_string(rule.node) +
            ", but the graph has n = " + std::to_string(graph.NumNodes()) +
            " nodes");
      }
    }
  }
  engine_ = std::make_unique<ShardedEngine>(graph, metrics_, options);
}

Simulator::~Simulator() = default;

FaultStats Simulator::InjectedFaults() const {
  return engine_->InjectedFaults();
}

void Simulator::Execute(const NodeProgram* coroutine, FlatProgram* flat) {
  if (ran_) throw std::logic_error("Simulator may run only once");
  ran_ = true;
  // The engine completes metrics_ before it rethrows a run-level failure.
  engine_->Execute(coroutine, flat);
  // Rethrow failures before the never-finished check: a node that threw
  // (e.g. an Awake request the scheduler rejected) is the root cause, and
  // peers it stranded mid-protocol must not mask it with the generic
  // error below.
  engine_->RethrowFirstNodeFailure();
}

Simulator::AuditSummary Simulator::Audit() const { return engine_->Audit(); }

void Simulator::FinishRun() {
  const NodeIndex unfinished = engine_->FirstUnfinishedNode();
  if (unfinished != kInvalidNode) {
    throw std::runtime_error(
        "node " + std::to_string(unfinished) +
        " never finished (suspended with an empty wake queue)");
  }
  // Model conformance is part of the fault-free contract: a clean run
  // must also be a clean audit (builds with SMST_AUDIT make every
  // existing test a conformance test this way).
  engine_->CheckAwakeMeters();
  const AuditSummary audit = Audit();
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
  } catch (const std::exception& e) {
    // Any other failure a fault drove the algorithm into (defensive
    // checks on malformed protocol state) counts as a crashed run.
    out.status = RunStatus::kCrashedPartition;
    out.detail = e.what();
  }
}

RunOutcome Simulator::FinishOutcome(RunOutcome out) {
  const std::uint64_t unfinished = engine_->CountUnfinished();
  out.unfinished_nodes = unfinished;
  if (out.status == RunStatus::kCompleted && unfinished > 0) {
    out.status = RunStatus::kCrashedPartition;
    out.detail = std::to_string(unfinished) +
                 " node program(s) never finished (crash-stopped nodes "
                 "and the peers they stranded)";
  }
  out.last_round = metrics_.LastRound();
  out.faults = InjectedFaults();
  engine_->CheckAwakeMeters();
  const AuditSummary audit = Audit();
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
