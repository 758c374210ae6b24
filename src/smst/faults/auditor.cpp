#include "smst/faults/auditor.h"

#include <algorithm>
#include <bit>
#include <sstream>

namespace smst {

namespace {

std::uint32_t WidthOf(std::uint64_t v) {
  return v == 0 ? 1u : static_cast<std::uint32_t>(std::bit_width(v));
}

// Information content of one message under the model's accounting: the
// +-infinity sentinels are distinguished symbols worth O(1) bits, not
// 64-bit integers (message.h documents them as outside the weight range).
std::uint32_t EffectiveBits(const Message& m) {
  auto field = [](std::uint64_t v) {
    return v == kPlusInfinity ? 1u : WidthOf(v);
  };
  return 8u + field(m.a) + field(m.b) + field(m.c);
}

}  // namespace

Auditor::Auditor(const WeightedGraph& graph)
    : awake_in_(graph.NumNodes(), 0) {
  // The CONGEST budget: every legitimate field is an ID (<= N), a weight
  // (<= the max finite edge weight), or a count/level/round index (<= n,
  // covered by the slack). All are poly(n), so the per-field ceiling is
  // the widest of those plus a small constant slack for flag/count
  // packing; three fields plus the tag byte.
  Weight max_weight = 0;
  for (EdgeIndex e = 0; e < graph.NumEdges(); ++e) {
    const Weight w = graph.GetEdge(e).weight;
    if (w != kPlusInfinity && w > max_weight) max_weight = w;
  }
  const std::uint32_t field_bits =
      std::max({WidthOf(graph.MaxId()), WidthOf(max_weight),
                WidthOf(graph.NumNodes())}) +
      4;
  // One field may legitimately carry up to four log-sized values in
  // 16-bit lanes (the log* coloring's Transmit-Adjacent coordinates,
  // coloring.cpp Pack4) — still O(log n) information, but the fixed lane
  // positions push its *positional* width to 3*16 + the top lane's
  // content. Budget the message as one packed field plus two plain
  // fields, or three plain fields, whichever is wider.
  const std::uint32_t packed_field_bits = 3u * 16u + std::min(field_bits, 16u);
  bit_budget_ =
      8u + std::max(3u * field_bits, packed_field_bits + 2u * field_bits);
}

void Auditor::Violate(std::string check, Round r, NodeIndex node,
                      std::string detail) {
  ++violation_count_;
  if (recorded_.size() < kMaxRecorded) {
    recorded_.push_back(
        AuditViolation{std::move(check), r, node, std::move(detail)});
  }
}

void Auditor::OnAwake(Round r, NodeIndex v) {
  if (v >= awake_in_.size()) {
    Violate("asleep-send", r, v, "awake mark for a node outside the graph");
    return;
  }
  awake_in_[v] = r;
  ++awake_node_rounds_;
}

void Auditor::OnSend(Round r, NodeIndex v, std::uint32_t port,
                     const Message& m) {
  if (!AwakeNow(r, v)) {
    Violate("asleep-send", r, v,
            "sent on port " + std::to_string(port) +
                " while not awake this round");
  }
  const std::uint32_t bits = EffectiveBits(m);
  if (bits > bit_budget_) {
    Violate("congest-bits", r, v,
            "message of " + std::to_string(bits) + " bits exceeds the " +
                std::to_string(bit_budget_) + "-bit CONGEST budget");
  }
}

void Auditor::OnDeliver(Round r, NodeIndex src, NodeIndex dst,
                        const Message&) {
  if (!AwakeNow(r, dst)) {
    Violate("asleep-receive", r, dst,
            "delivery from node " + std::to_string(src) +
                " to a node not awake this round");
  }
}

void Auditor::OnDrop(Round, NodeIndex, bool injected) {
  if (injected) {
    ++injected_drops_;
  } else {
    ++model_drops_;
  }
}

void Auditor::CheckAwakeMeter(const Metrics& metrics) {
  std::uint64_t metered_awake = 0;
  std::uint64_t metered_drops = 0;
  for (const NodeMetrics& m : metrics.PerNode()) {
    metered_awake += m.awake_rounds;
    metered_drops += m.messages_dropped;
  }
  if (metered_awake != awake_node_rounds_) {
    Violate("awake-meter", metrics.LastRound(), kInvalidNode,
            "scheduler metered " + std::to_string(metered_awake) +
                " awake node-rounds, auditor observed " +
                std::to_string(awake_node_rounds_));
  }
  if (metered_drops != model_drops_) {
    Violate("awake-meter", metrics.LastRound(), kInvalidNode,
            "scheduler metered " + std::to_string(metered_drops) +
                " model drops, auditor observed " +
                std::to_string(model_drops_));
  }
}

std::string Auditor::Report() const {
  if (Clean()) return "";
  std::ostringstream out;
  out << violation_count_ << " audit violation(s)";
  if (violation_count_ > recorded_.size()) {
    out << " (" << recorded_.size() << " recorded)";
  }
  for (const AuditViolation& v : recorded_) {
    out << "\n  [" << v.check << "] round " << v.round;
    if (v.node != kInvalidNode) out << " node " << v.node;
    out << ": " << v.detail;
  }
  return out.str();
}

}  // namespace smst
