// Internals shared by the MST programs: the run driver both
// Randomized-MST and Deterministic-MST use, and the edge selection of the
// GHS-style sleeping algorithms (Randomized-MST and the
// Barenboim-Maimon-style spanning tree, which is the same engine with a
// different edge-selection rule). Not part of the public API.
#pragma once

#include <cstdint>
#include <mutex>
#include <span>
#include <vector>

#include "smst/graph/graph.h"
#include "smst/mst/options.h"
#include "smst/mst/result.h"
#include "smst/runtime/flat/program.h"
#include "smst/sleeping/flat_procedures.h"
#include "smst/sleeping/ldt.h"

namespace smst::detail {

// What every node of an MST program reads and writes outside its own
// record: the run's phase budget, and the outputs RunProgram assembles
// the result from. The port marks, final LDTs and phases done are
// written at disjoint (node- or port-indexed) slots, so shard workers
// need no lock for them; the fields after them take `mutex`.
struct Shared {
  // `algorithm` names the program in the phase-cap error.
  Shared(const WeightedGraph& graph, const MstOptions& options,
         const char* algorithm, std::uint64_t phase_cap);

  // Adds one to `counts[phase]` (fragments_at or blue_at).
  void Count(std::vector<std::uint64_t>& counts, std::uint64_t phase);
  // Records node v's LDT at the end of `phase` when snapshots are on.
  void Snapshot(std::uint64_t phase, NodeIndex v, const LdtState& ldt);
  // The end of node v's program: throws NonTerminationError if an
  // early-detect run used up its phases without finishing, else extends
  // run_end to `last_round` and records v's final LDT and last active
  // phase. Returns kFlatDone.
  Round Finish(NodeIndex v, bool finished, Round last_round,
               const LdtState& ldt, std::uint64_t last_active_phase);

  const WeightedGraph* g;
  const char* algorithm;
  TerminationMode termination;
  std::uint64_t phase_cap;
  bool record_snapshots;
  // The MST marks, one byte per port (the graph's CSR port numbering):
  // shard workers mark ports of different nodes at the same time, which
  // bytes allow and a packed bit vector would not.
  std::vector<std::uint8_t> port_marks;
  std::vector<LdtState> final_ldt;
  std::vector<std::uint64_t> phases_done;
  // Under `mutex`: every node writes these, from every shard's worker at
  // once, and the vectors grow as phases come. The contents are order-
  // independent: a snapshot cell (phase-1, v) has one writer, the counts
  // are sums and run_end is a maximum.
  std::vector<std::vector<LdtState>> snapshots;
  // Fragment roots alive at each phase's start, and Blue fragment roots
  // (Deterministic-MST); index 0 unused.
  std::vector<std::uint64_t> fragments_at;
  std::vector<std::uint64_t> blue_at;
  // The latest round any node's program ended in. A paper-phase run
  // sleeps through its unused phases but still takes them, so this is
  // past its last awake round.
  Round run_end = 0;
  std::mutex mutex;
};

// Runs `program`, whose nodes write `shared`, on `g` under `options`, and
// assembles the result: the tree from the port marks, the metrics (their
// round count extended to run_end), the phases done, the final LDTs, and
// the per-phase counts and snapshots of those phases. A run with a
// non-empty fault plan is classified into MstRunResult::outcome (and its
// completed result refined) instead of throwing.
MstRunResult RunProgram(const WeightedGraph& g, const MstOptions& options,
                        FlatProgram& program, Shared& shared);

enum class SelectionRule {
  kMinWeight,      // choose the minimum-weight outgoing edge -> MST
  kMinNeighborId,  // choose any outgoing edge (min neighbor fragment ID,
                   // weight tie-break) -> arbitrary spanning tree
};

// Runs the coin-flip GHS engine with the given selection rule.
MstRunResult RunGhsStyle(const WeightedGraph& g, const MstOptions& options,
                         SelectionRule rule);

// This node's best outgoing-edge candidate under `rule` (absent if every
// neighbor is in the same fragment). `nbr_frag[p]` is the fragment ID
// heard on port p. The item's `b` field always carries the edge weight,
// which identifies the edge globally.
inline UpcastItem LocalMoe(const FlatNodeRef& node, const LdtState& ldt,
                           std::span<const NodeId> nbr_frag,
                           SelectionRule rule) {
  UpcastItem best;  // absent
  for (std::uint32_t p = 0; p < node.Degree(); ++p) {
    if (nbr_frag[p] == ldt.fragment_id) continue;
    const Weight w = node.WeightAtPort(p);
    UpcastItem candidate;
    switch (rule) {
      case SelectionRule::kMinWeight:
        candidate = UpcastItem{w, w, 0};
        break;
      case SelectionRule::kMinNeighborId:
        candidate = UpcastItem{nbr_frag[p], w, 0};
        break;
    }
    if (candidate < best) best = candidate;
  }
  return best;
}

// The port of this node's outgoing edge with the given weight, or kNoPort
// if the fragment's chosen edge is not incident here.
inline std::uint32_t PortOfOutgoingWeight(const FlatNodeRef& node,
                                          const LdtState& ldt,
                                          std::span<const NodeId> nbr_frag,
                                          Weight weight) {
  for (std::uint32_t p = 0; p < node.Degree(); ++p) {
    if (nbr_frag[p] != ldt.fragment_id && node.WeightAtPort(p) == weight) {
      return p;
    }
  }
  return kNoPort;
}

}  // namespace smst::detail
