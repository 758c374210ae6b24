#include "smst/mst/result.h"

#include <string>

#include "smst/faults/auditor.h"
#include "smst/mst/options.h"

namespace smst {

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

  r.fragments_per_phase.assign(phases + 1, 0);
  r.blue_per_phase.assign(phases + 1, 0);
  for (std::uint64_t phase = 1; phase <= phases; ++phase) {
    r.fragments_per_phase[phase] = static_cast<std::uint64_t>(
        metrics.ProbeValue(kProbeFragmentsAtPhase, phase));
    r.blue_per_phase[phase] = static_cast<std::uint64_t>(
        metrics.ProbeValue(kProbeBlueAtPhase, phase));
  }
  return r;
}

RunOutcome DriveProgram(Simulator& sim, FlatProgram& program, bool faulted) {
  if (!faulted) {
    sim.Run(program);
    // Run() already threw if the audit was not clean; surface the
    // auditor's meters so callers can cross-check them like in faulted
    // runs (all-zero when no auditor ran). Audit() covers both engines
    // (serial auditor, or summed shard auditors).
    RunOutcome out;
    const Simulator::AuditSummary a = sim.Audit();
    if (a.audited) {
      out.audited_awake_node_rounds = a.awake_node_rounds;
      out.audited_model_drops = a.model_drops;
      out.audit_violations = a.violations;
    }
    return out;
  }
  return sim.RunToOutcome(program);
}

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

}  // namespace smst
