// Cross-shard message exchange for a run on K >= 2 shards.
//
// Every surviving *cross-shard* message of a round — fresh or adversary-
// delayed — travels as a WireEntry through the (producer, consumer) pair
// of a ShardExchange; shard-local sends are delivered directly by the
// owner's post-barrier scan and never touch the exchange. Receive order
// stays a pure function of the entries themselves: each producer emits
// in ascending source order (it iterates its staged wakers sorted by
// node index), shards own disjoint node sets, and the consumer steps its
// local wakers and its remote stream heads by minimum source — so the
// interleaved sequence equals a one-shard run's delivery order exactly,
// for any shard count. DESIGN.md §12 gives the full determinism argument.
//
// Concurrency: none inside. Each pair is a plain vector, and the round
// barrier is what orders its two users: producers push only in the
// collect phase, before the publish barrier, and consumers drain only in
// the receive phase, after it and before the next round's select
// barrier. A push and a drain of one pair are therefore never concurrent.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "smst/graph/graph.h"
#include "smst/runtime/message.h"

namespace smst {

// Same alias as runtime/scheduler.h; redeclaring it identically avoids
// pulling the whole scheduler header into the wire format.
using Round = std::uint64_t;

// One message taken off its sender's batch: on the wire between shards,
// or parked in a Scheduler's delayed heap. `due` = 0 means fresh (deliver
// in the current round iff the destination is awake); otherwise it is the
// absolute round an adversary-delayed message falls due, and the owner
// of `dst` parks the entry as it is. (birth_round, src, batch_pos, copy)
// is the message's canonical identity: the round it was sent, its
// sender, its position in the sender's send batch, and 0/1 for original
// versus adversary duplicate. The delayed heap orders by (due, identity)
// — invariant coordinates, not an insertion counter — so its drain order
// (hence duplicate inbox order and drop attribution) does not depend on
// which shard parked the entry. `copy` sits in the message's tail
// padding (message.h), so an entry is one 64-byte line; build it with
// designated initializers.
struct WireEntry {
  NodeIndex src = kInvalidNode;
  NodeIndex dst = kInvalidNode;
  std::uint32_t dst_port = 0;
  std::uint32_t batch_pos = 0;
  Round due = 0;
  Round birth_round = 0;
  [[no_unique_address]] Message msg;
  std::uint8_t copy = 0;

  // The delayed heap's order (a min-heap under std::greater).
  bool operator>(const WireEntry& o) const {
    if (due != o.due) return due > o.due;
    if (birth_round != o.birth_round) return birth_round > o.birth_round;
    if (src != o.src) return src > o.src;
    if (batch_pos != o.batch_pos) return batch_pos > o.batch_pos;
    return copy > o.copy;
  }
};
static_assert(sizeof(WireEntry) <= 64);

// K x K (producer, consumer) pairs. Producer s pushes to (s, t) during its
// collect phase; consumer t drains column t during its receive phase.
class ShardExchange {
 public:
  explicit ShardExchange(std::uint32_t shards)
      : shards_(shards), pairs_(std::size_t{shards} * shards) {}

  void Push(std::uint32_t from, std::uint32_t to, const WireEntry& e) {
    pairs_[std::size_t{from} * shards_ + to].entries.push_back(e);
  }

  // Hands pair (from, to)'s entries to `out`, in push order — ascending
  // (src, batch_pos, copy) within the round — by swapping buffers:
  // `out`'s old contents are discarded and its buffer becomes the pair's,
  // empty, for the next round. The two buffers keep their capacity, so a
  // steady run allocates nothing here.
  void DrainInto(std::uint32_t from, std::uint32_t to,
                 std::vector<WireEntry>& out) {
    std::vector<WireEntry>& entries =
        pairs_[std::size_t{from} * shards_ + to].entries;
    out.swap(entries);
    entries.clear();
  }

 private:
  // One cache line per pair: producers append to different pairs at the
  // same time, and their vector headers must not share a line.
  struct alignas(64) Pair {
    std::vector<WireEntry> entries;
  };

  std::uint32_t shards_;
  std::vector<Pair> pairs_;
};

}  // namespace smst
