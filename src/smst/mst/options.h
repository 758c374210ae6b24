// Options shared by the distributed MST algorithms.
#pragma once

#include <cstdint>

#include "smst/runtime/scheduler.h"
#include "smst/runtime/simulator.h"

namespace smst {

// No effect; see MstOptions::engine.
enum class EngineMode : std::uint8_t { kCoroutine, kFlat };

enum class MstAlgorithm {
  kRandomized,            // §2.2: coin-flip valid-MOE filtering
  kDeterministic,         // §2.3: Fast-Awake-Coloring, O(nN log n) rounds
  kDeterministicLogStar,  // Corollary 1: log*-coloring variant
  kGhsBaseline,           // traditional model: awake every round
  kBmSpanningTree,        // related work [2]: arbitrary spanning tree
};

const char* MstAlgorithmName(MstAlgorithm a);

enum class TerminationMode {
  // A fragment whose Upcast-Min finds no outgoing edge spans the whole
  // graph; its root announces DONE in the next Fragment-Broadcast and
  // everyone stops. O(1) extra awake rounds; exact termination.
  kEarlyDetect,
  // The paper's fixed phase budget (4*ceil(log_{4/3} n) + 1 randomized).
  // Nodes run every phase; once a single fragment remains the remaining
  // phases are no-ops. Correct w.h.p. exactly as stated in the paper.
  kPaperPhaseCount,
};

struct MstOptions {
  std::uint64_t seed = 1;
  TerminationMode termination = TerminationMode::kEarlyDetect;
  // Watchdog passed to the simulator.
  Round max_rounds = std::uint64_t{1} << 62;
  // Record per-node awake round numbers into MstRunResult::wake_times
  // (the ring lower-bound experiment's information-propagation analysis).
  bool record_wake_times = false;
  // Snapshot every node's LDT state at the end of each phase into
  // MstRunResult::forest_per_phase (tests check the FLDT invariant holds
  // *between* phases, not just at the end). Out-of-band telemetry.
  bool record_forest_snapshots = false;
  // Adaptive schedule blocks (randomized engine only — randomized,
  // GHS-baseline and BM spanning tree; Deterministic-MST and its log*
  // variant throw std::invalid_argument): instead of the
  // paper's fixed 2n+1-round blocks, phase p uses blocks of span
  // B_p + 1, where B_1 = 0 and B_{p+1} = min(3*B_p + 1, n-1) bounds every
  // fragment's depth (a merged fragment is at most 3x+1 deeper than its
  // parts: heads depth + 1 + re-rooted tails depth <= B + 1 + 2B). Same
  // protocol, same coin flips, same tree and awake complexity — only the
  // early phases' sleeping rounds shrink. See bench_adaptive_blocks.
  bool adaptive_blocks = false;
  // Borrowed fault plan (null or empty = fault-free). A non-empty plan
  // switches the harness to bounded-run mode: instead of throwing, the
  // run is classified into MstRunResult::outcome (see faults/run_outcome.h)
  // and the result is assembled best-effort.
  const FaultPlan* fault_plan = nullptr;
  // Runtime invariant auditor (see faults/auditor.h); kDefault follows
  // the build configuration (on under SMST_AUDIT / Debug).
  AuditMode audit = AuditMode::kDefault;
  // Simulator shards: <= 1 runs one shard on the calling thread; K >= 2
  // runs the node programs on K worker threads with bit-identical results
  // (DESIGN §12).
  std::uint32_t shards = 0;
  ShardPolicy shard_policy = ShardPolicy::kContiguousBlocks;
  // No effect: every run steps on the one round loop (DESIGN §13). Kept
  // only because the end-to-end benchmark (perfbench/e2e.cpp) still sets
  // it; it goes with the next change to that benchmark.
  EngineMode engine = EngineMode::kCoroutine;
};

}  // namespace smst
