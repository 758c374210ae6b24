#include "smst/mst/result.h"

#include <algorithm>
#include <span>
#include <string>

#include "smst/mst/detail.h"
#include "smst/mst/options.h"
#include "smst/runtime/simulator.h"

namespace smst {

namespace {

// Turns per-port MST marks (one byte per port, indexed by the graph's CSR
// port numbering; nonzero = marked) into an edge list, filling
// `consistency_error` on endpoint mismatch.
MstRunResult AssembleResult(const WeightedGraph& g,
                            std::span<const std::uint8_t> port_marks,
                            const Metrics& metrics, std::uint64_t phases,
                            std::vector<LdtState> final_ldt) {
  MstRunResult r;
  r.stats = metrics.Summarize();
  r.phases = phases;
  r.final_ldt = std::move(final_ldt);

  // Per-edge marks from both endpoints' port marks.
  std::vector<std::uint8_t> endpoint_count(g.NumEdges(), 0);
  for (NodeIndex v = 0; v < g.NumNodes(); ++v) {
    const auto ports = g.PortsOf(v);
    const std::uint8_t* marks = port_marks.data() + g.PortOffset(v);
    for (std::uint32_t p = 0; p < ports.size(); ++p) {
      if (marks[p] != 0) ++endpoint_count[ports[p].edge];
    }
  }
  for (EdgeIndex e = 0; e < g.NumEdges(); ++e) {
    if (endpoint_count[e] == 2) {
      r.tree_edges.push_back(e);
    } else if (endpoint_count[e] == 1 && r.consistency_error.empty()) {
      r.consistency_error =
          "edge " + std::to_string(e) +
          " marked by exactly one endpoint (protocol inconsistency)";
    }
  }

  r.node_metrics = metrics.PerNode();
  if (metrics.WakeTimesEnabled()) {
    r.wake_times.reserve(g.NumNodes());
    for (NodeIndex v = 0; v < g.NumNodes(); ++v) {
      r.wake_times.push_back(metrics.Node(v).wake_times);
    }
  }
  return r;
}

// Refines a faulted run's kCompleted outcome against the assembled
// result: an endpoint inconsistency or a non-spanning edge set becomes
// kWrongResult. (Exact weight verification is left to callers with a
// reference MST, e.g. VerifyMst.)
void RefineOutcome(MstRunResult& result, std::size_t num_nodes) {
  if (!result.outcome.Ok()) return;
  if (!result.consistency_error.empty()) {
    result.outcome.status = RunStatus::kWrongResult;
    result.outcome.detail = result.consistency_error;
    return;
  }
  if (result.tree_edges.size() + 1 != num_nodes) {
    result.outcome.status = RunStatus::kWrongResult;
    result.outcome.detail =
        "tree has " + std::to_string(result.tree_edges.size()) +
        " edges, a spanning tree on " + std::to_string(num_nodes) +
        " nodes needs " + std::to_string(num_nodes - 1);
  }
}

}  // namespace

namespace detail {

Shared::Shared(const WeightedGraph& graph, const MstOptions& options,
               const char* algorithm_name, std::uint64_t cap)
    : g(&graph),
      algorithm(algorithm_name),
      termination(options.termination),
      phase_cap(cap),
      record_snapshots(options.record_forest_snapshots),
      port_marks(graph.NumPorts(), 0),
      final_ldt(graph.NumNodes()),
      phases_done(graph.NumNodes(), 0) {}

void Shared::Count(std::vector<std::uint64_t>& counts, std::uint64_t phase) {
  std::lock_guard<std::mutex> lock(mutex);
  if (counts.size() <= phase) counts.resize(phase + 1, 0);
  ++counts[phase];
}

void Shared::Snapshot(std::uint64_t phase, NodeIndex v, const LdtState& ldt) {
  if (!record_snapshots) return;
  std::lock_guard<std::mutex> lock(mutex);
  if (snapshots.size() < phase) {
    snapshots.resize(phase, std::vector<LdtState>(g->NumNodes()));
  }
  snapshots[phase - 1][v] = ldt;
}

Round Shared::Finish(NodeIndex v, bool finished, Round last_round,
                     const LdtState& ldt, std::uint64_t last_active_phase) {
  if (!finished && termination == TerminationMode::kEarlyDetect) {
    throw NonTerminationError(std::string(algorithm) + ": phase cap " +
                              std::to_string(phase_cap) +
                              " exceeded without termination");
  }
  {
    std::lock_guard<std::mutex> lock(mutex);
    run_end = std::max(run_end, last_round);
  }
  final_ldt[v] = ldt;
  phases_done[v] = last_active_phase;
  return kFlatDone;
}

MstRunResult RunProgram(const WeightedGraph& g, const MstOptions& options,
                        FlatProgram& program, Shared& shared) {
  SimulatorOptions sim_options;
  sim_options.seed = options.seed;
  sim_options.max_rounds = options.max_rounds;
  sim_options.record_wake_times = options.record_wake_times;
  sim_options.fault_plan = options.fault_plan;
  sim_options.audit = options.audit;
  sim_options.shards = options.shards;
  sim_options.shard_policy = options.shard_policy;
  const bool faulted =
      options.fault_plan != nullptr && !options.fault_plan->Empty();
  Simulator sim(g, sim_options);
  // The dual contract: a fault-free run throws on any failure, a faulted
  // one is classified instead.
  RunOutcome outcome;
  if (faulted) {
    outcome = sim.RunToOutcome(program);
  } else {
    sim.Run(program);
    // Run() already threw if the audit was not clean; surface the
    // auditor's meters so callers can cross-check them like in faulted
    // runs (all-zero when no auditor ran).
    const Simulator::AuditSummary a = sim.Audit();
    if (a.audited) {
      outcome.audited_awake_node_rounds = a.awake_node_rounds;
      outcome.audited_model_drops = a.model_drops;
      outcome.audit_violations = a.violations;
    }
  }

  std::uint64_t phases = 0;
  for (auto p : shared.phases_done) phases = std::max(phases, p);
  auto result = AssembleResult(g, shared.port_marks, sim.GetMetrics(), phases,
                               std::move(shared.final_ldt));
  // The run ends when its last node's program does, which may be past
  // the last round any node was awake in.
  result.stats.rounds = std::max(result.stats.rounds, shared.run_end);
  if (faulted) {
    outcome.last_round = std::max(outcome.last_round, shared.run_end);
  }
  shared.fragments_at.resize(phases + 1);
  shared.blue_at.resize(phases + 1);
  result.fragments_per_phase = std::move(shared.fragments_at);
  result.blue_per_phase = std::move(shared.blue_at);
  shared.snapshots.resize(
      std::min<std::size_t>(shared.snapshots.size(), phases));
  result.forest_per_phase = std::move(shared.snapshots);
  result.outcome = std::move(outcome);
  if (faulted) RefineOutcome(result, g.NumNodes());
  return result;
}

}  // namespace detail
}  // namespace smst
