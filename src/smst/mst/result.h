// Result of a distributed MST run.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "smst/faults/run_outcome.h"
#include "smst/graph/graph.h"
#include "smst/runtime/metrics.h"
#include "smst/sleeping/ldt.h"

namespace smst {

struct MstRunResult {
  // The edge set both endpoints marked as MST edges, sorted. (For the
  // spanning-tree algorithm this is the chosen spanning tree.)
  std::vector<EdgeIndex> tree_edges;
  // Non-empty iff the two endpoints of some edge disagreed on membership
  // (always empty for correct runs; surfaced for tests).
  std::string consistency_error;

  RunStats stats;             // awake / round / message metrics
  std::uint64_t phases = 0;   // phases until termination (or the budget)

  // How the run ended. Fault-free runs keep the historical throwing
  // contract and always report kCompleted here; under a FaultPlan the
  // failure mode is classified instead of thrown (tree_edges and the
  // telemetry below are then best-effort).
  RunOutcome outcome;

  // Telemetry: fragments alive at the start of each phase (1-indexed by
  // phase; entry 0 unused), counted by each fragment's root.
  std::vector<std::uint64_t> fragments_per_phase;
  // Deterministic algorithm only: Blue fragments per phase.
  std::vector<std::uint64_t> blue_per_phase;

  // Final per-node LDT snapshot (telemetry; lets tests check the forest
  // collapsed to a single tree spanning the graph).
  std::vector<LdtState> final_ldt;

  // Per-node awake round numbers; filled iff MstOptions::record_wake_times.
  std::vector<std::vector<std::uint64_t>> wake_times;

  // Per-node metrics (awake rounds, messages, bits) — the congestion
  // view the Theorem-4 experiments need.
  std::vector<NodeMetrics> node_metrics;

  // forest_per_phase[p][v] = node v's LDT state at the end of phase p+1;
  // filled iff MstOptions::record_forest_snapshots.
  std::vector<std::vector<LdtState>> forest_per_phase;
};

}  // namespace smst
