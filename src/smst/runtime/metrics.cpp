#include "smst/runtime/metrics.h"

#include <cassert>

namespace smst {

void Metrics::MergeFrom(const Metrics& other) {
  assert(per_node_.size() == other.per_node_.size());
  for (std::size_t v = 0; v < per_node_.size(); ++v) {
    NodeMetrics& mine = per_node_[v];
    const NodeMetrics& theirs = other.per_node_[v];
    mine.awake_rounds += theirs.awake_rounds;
    mine.messages_sent += theirs.messages_sent;
    mine.bits_sent += theirs.bits_sent;
    mine.messages_dropped += theirs.messages_dropped;
    if (!theirs.wake_times.empty()) {
      mine.wake_times.insert(mine.wake_times.end(), theirs.wake_times.begin(),
                             theirs.wake_times.end());
    }
  }
  record_wake_times_ = record_wake_times_ || other.record_wake_times_;
  if (other.last_round_ > last_round_) last_round_ = other.last_round_;
  if (other.max_message_bits_ > max_message_bits_) {
    max_message_bits_ = other.max_message_bits_;
  }
}

RunStats Metrics::Summarize() const {
  RunStats s;
  s.rounds = last_round_;
  s.max_message_bits = max_message_bits_;
  std::uint64_t sum_awake = 0;
  for (const NodeMetrics& m : per_node_) {
    sum_awake += m.awake_rounds;
    if (m.awake_rounds > s.max_awake) s.max_awake = m.awake_rounds;
    s.total_messages += m.messages_sent;
    s.total_bits += m.bits_sent;
    s.dropped_messages += m.messages_dropped;
  }
  s.awake_node_rounds = sum_awake;
  s.avg_awake = per_node_.empty()
                    ? 0.0
                    : static_cast<double>(sum_awake) /
                          static_cast<double>(per_node_.size());
  return s;
}

}  // namespace smst
