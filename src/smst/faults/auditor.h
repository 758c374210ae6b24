// Runtime invariant auditor for the sleeping-model CONGEST substrate.
//
// The Auditor is a pluggable checker layer that watches a run from the
// scheduler's hooks and independently re-derives the model's invariants
// every round:
//
//   congest-bits    no message exceeds the O(log n)-bit CONGEST budget
//                   (derived from the graph's ID range, weight range, and
//                   n; the +-infinity sentinels count as one symbol, and
//                   the budget admits one field packing four log-sized
//                   values in 16-bit lanes — the coloring's Pack4 idiom)
//   asleep-send     no node sends in a round it is not awake in
//   asleep-receive  no message is delivered to a sleeping node
//   awake-meter     the auditor's own awake-node-round count matches the
//                   scheduler's Metrics meter (CheckAwakeMeter)
//
// The forest invariant of the fragment structure is not a run-time hook:
// CheckForestInvariant (sleeping/ldt.h) checks whole-graph LDT snapshots.
//
// Violations are recorded with round + node attribution (the first
// kMaxRecorded, counted beyond that). The hooks sit on the scheduler's
// observed path, behind a null-pointer check; a run with no auditor,
// fault plan or trace never reaches them. Debug builds (and any
// build configured with -DSMST_AUDIT=ON) install an auditor on every
// Simulator by default, making every existing test a model-conformance
// test. The auditor never changes execution — it only observes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "smst/graph/graph.h"
#include "smst/runtime/message.h"
#include "smst/runtime/metrics.h"

namespace smst {

using Round = std::uint64_t;  // same alias as runtime/scheduler.h

struct AuditViolation {
  std::string check;  // "congest-bits" | "asleep-send" | ... (see above)
  Round round = 0;
  NodeIndex node = kInvalidNode;
  std::string detail;
};

class Auditor {
 public:
  // Violations recorded verbatim; the rest are only counted.
  static constexpr std::size_t kMaxRecorded = 64;

  // Derives the per-message CONGEST bit budget from the graph (see
  // BitBudget()).
  explicit Auditor(const WeightedGraph& graph);

  // ---- scheduler hooks (observation only; cheap, branch-free inner) ---
  void OnAwake(Round r, NodeIndex v);
  void OnSend(Round r, NodeIndex v, std::uint32_t port, const Message& m);
  void OnDeliver(Round r, NodeIndex src, NodeIndex dst, const Message& m);
  // `injected` distinguishes adversary drops from sleeping-model loss.
  void OnDrop(Round r, NodeIndex src, bool injected);

  // ---- cross-checks ---------------------------------------------------
  // Compares the auditor's awake/drop meters against the scheduler's.
  void CheckAwakeMeter(const Metrics& metrics);

  // ---- results --------------------------------------------------------
  bool Clean() const { return violation_count_ == 0; }
  std::uint64_t ViolationCount() const { return violation_count_; }
  const std::vector<AuditViolation>& Violations() const { return recorded_; }
  std::uint64_t AwakeNodeRounds() const { return awake_node_rounds_; }
  std::uint64_t ModelDrops() const { return model_drops_; }
  std::uint64_t InjectedDrops() const { return injected_drops_; }
  std::uint32_t BitBudget() const { return bit_budget_; }
  // One-line-per-violation report ("" when clean).
  std::string Report() const;

 private:
  void Violate(std::string check, Round r, NodeIndex node,
               std::string detail);
  bool AwakeNow(Round r, NodeIndex v) const {
    return v < awake_in_.size() && awake_in_[v] == r;
  }

  std::uint32_t bit_budget_ = 0;
  // node -> last round it was marked awake in (rounds start at 1, so 0
  // means "never").
  std::vector<Round> awake_in_;
  std::uint64_t awake_node_rounds_ = 0;
  std::uint64_t model_drops_ = 0;
  std::uint64_t injected_drops_ = 0;
  std::uint64_t violation_count_ = 0;
  std::vector<AuditViolation> recorded_;
};

}  // namespace smst
