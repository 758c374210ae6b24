// Run metrics: the quantities the paper's Table 1 is about.
//
// The scheduler (not the algorithms) meters awake rounds, so an algorithm
// cannot under-report its awake complexity. Algorithm telemetry (the MST
// programs' per-phase counts) lives with the algorithm, not here.
#pragma once

#include <cstdint>
#include <vector>

namespace smst {

struct NodeMetrics {
  std::uint64_t awake_rounds = 0;
  std::uint64_t messages_sent = 0;
  std::uint64_t bits_sent = 0;
  std::uint64_t messages_dropped = 0;  // sent to a sleeping neighbor
  // The absolute round numbers this node was awake in, recorded only when
  // Metrics::EnableWakeTimes() was called (used by the ring lower-bound
  // experiment's information-propagation analysis).
  std::vector<std::uint64_t> wake_times;
};

// Aggregate view over a finished run.
struct RunStats {
  std::uint64_t rounds = 0;            // last round any node was awake
  std::uint64_t max_awake = 0;         // the paper's awake complexity
  double avg_awake = 0.0;              // node-averaged awake complexity
  std::uint64_t total_messages = 0;
  std::uint64_t total_bits = 0;
  std::uint64_t max_message_bits = 0;  // largest single message
  std::uint64_t dropped_messages = 0;
  std::uint64_t awake_node_rounds = 0;  // Σ_v awake_v (simulation work)
};

class Metrics {
 public:
  explicit Metrics(std::size_t num_nodes) : per_node_(num_nodes) {}

  NodeMetrics& Node(std::size_t v) { return per_node_[v]; }
  const NodeMetrics& Node(std::size_t v) const { return per_node_[v]; }
  const std::vector<NodeMetrics>& PerNode() const { return per_node_; }

  void RecordMessageBits(std::uint64_t bits) {
    if (bits > max_message_bits_) max_message_bits_ = bits;
  }

  void EnableWakeTimes() { record_wake_times_ = true; }
  bool WakeTimesEnabled() const { return record_wake_times_; }
  void SetLastRound(std::uint64_t r) {
    if (r > last_round_) last_round_ = r;
  }
  std::uint64_t LastRound() const { return last_round_; }

  RunStats Summarize() const;

  // Adds `other`'s meters into this object (sharded backend: one full-
  // size Metrics per shard, merged in fixed shard order). Counters sum;
  // last round and the message-bit peak take the max; wake times append
  // (only a node's owner shard records them, so at most one source
  // contributes per node). Requires equal node counts.
  void MergeFrom(const Metrics& other);

 private:
  std::vector<NodeMetrics> per_node_;
  bool record_wake_times_ = false;
  std::uint64_t last_round_ = 0;
  std::uint64_t max_message_bits_ = 0;
};

}  // namespace smst
