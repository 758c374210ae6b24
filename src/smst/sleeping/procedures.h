// The paper's toolbox (Appendix B): O(1)-awake, O(n)-round procedures on
// a Forest of Labeled Distance Trees. Every procedure occupies exactly
// one schedule block (2n+1 rounds); all fragments run the same procedure
// in the same block, so cross-fragment Side rounds line up globally.
// This header holds their messages and results; the procedures run as
// the flat sub-machines in sleeping/flat_procedures.h.
//
// Awake costs (asserted by tests):
//   Fragment-Broadcast  <= 2 wakes (1 for root / leaves)   FlatBroadcast
//   Upcast-Min          <= 2 wakes                         FlatUpcastMin
//   Upcast-Sum          <= 2 wakes                         FlatUpcastSum
//   Transmit-Adjacent   == 1 wake: the block's Side round,
//                       TransmissionSchedule(block, level, n).side
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <utility>

#include "smst/runtime/message.h"
#include "smst/sleeping/ldt.h"
#include "smst/sleeping/schedule.h"

namespace smst {

// Message tags used by the toolbox; algorithms use tags >= 100.
enum ProcedureTag : std::uint16_t {
  kTagBroadcast = 1,
  kTagUpcastMin = 2,
  kTagUpcastSum = 3,
  kTagSide = 4,
  kTagMergeSide = 5,
  kTagMergeUp = 6,
  kTagMergeDown = 7,
};

// A value offered to / aggregated by Upcast-Min. Ordered by (key, b, c);
// key == kPlusInfinity means "no value".
struct UpcastItem {
  std::uint64_t key = kPlusInfinity;
  std::uint64_t b = 0;
  std::uint64_t c = 0;

  bool Absent() const { return key == kPlusInfinity; }
  friend bool operator<(const UpcastItem& x, const UpcastItem& y) {
    if (x.key != y.key) return x.key < y.key;
    if (x.b != y.b) return x.b < y.b;
    return x.c < y.c;
  }
};

struct UpcastSumResult {
  std::uint64_t subtree_total = 0;  // own contribution + all descendants
  // (child port, that child's subtree total) in child_ports order; kept
  // so a later down-pass can split an allotment among subtrees. SmallVec:
  // LDT fan-out is small, so this stays inside the node's state.
  SmallVec<std::pair<std::uint32_t, std::uint64_t>, 4> child_totals;
};

// The message that arrived on `port`, if any.
inline std::optional<Message> MessageFromPort(
    std::span<const InMessage> inbox, std::uint32_t port) {
  for (const InMessage& m : inbox) {
    if (m.port == port) return m.msg;
  }
  return std::nullopt;
}

}  // namespace smst
