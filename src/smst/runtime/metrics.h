// Run metrics: the quantities the paper's Table 1 is about.
//
// The scheduler (not the algorithms) meters awake rounds, so an algorithm
// cannot under-report its awake complexity. Probes are out-of-band
// telemetry used by benches (e.g. fragment counts per phase); they do not
// affect execution.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
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
  // Run time counts every round until the last node terminates locally,
  // including trailing sleeping rounds (a paper-phase-budget run sleeps
  // through its unused phases but still "takes" them).
  void ExtendRun(std::uint64_t termination_round) {
    SetLastRound(termination_round);
  }
  std::uint64_t LastRound() const { return last_round_; }

  // Out-of-band bench telemetry: counters keyed by (kind, key). Stored as
  // a flat sorted vector — probe keys are few (one per phase per kind) and
  // hot in the algorithms' phase loops, where the sorted-array lower_bound
  // beats the node-per-entry std::map this replaced.
  using ProbeKey = std::pair<std::uint32_t, std::uint64_t>;
  using ProbeEntry = std::pair<ProbeKey, std::int64_t>;
  void Probe(std::uint32_t kind, std::uint64_t key, std::int64_t delta = 1) {
    const ProbeKey k{kind, key};
    auto it = std::lower_bound(probes_.begin(), probes_.end(), k,
                               [](const ProbeEntry& e, const ProbeKey& want) {
                                 return e.first < want;
                               });
    if (it != probes_.end() && it->first == k) {
      it->second += delta;
    } else {
      probes_.insert(it, ProbeEntry{k, delta});
    }
  }
  std::int64_t ProbeValue(std::uint32_t kind, std::uint64_t key) const {
    const ProbeKey k{kind, key};
    auto it = std::lower_bound(probes_.begin(), probes_.end(), k,
                               [](const ProbeEntry& e, const ProbeKey& want) {
                                 return e.first < want;
                               });
    return it != probes_.end() && it->first == k ? it->second : 0;
  }
  RunStats Summarize() const;

  // Adds `other`'s meters into this object (sharded backend: one full-
  // size Metrics per shard, merged in fixed shard order). Counters sum;
  // last round and the message-bit peak take the max; probes key-sum;
  // wake times append (only a node's owner shard records them, so at
  // most one source contributes per node). Requires equal node counts.
  void MergeFrom(const Metrics& other);

 private:
  std::vector<NodeMetrics> per_node_;
  bool record_wake_times_ = false;
  std::uint64_t last_round_ = 0;
  std::uint64_t max_message_bits_ = 0;
  std::vector<ProbeEntry> probes_;
};

}  // namespace smst
