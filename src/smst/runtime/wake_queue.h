// The pending-wake queue of the round loop (Scheduler, runtime/
// scheduler.h; one per shard on the sharded engine).
//
// A monotone radix heap keyed by round (Ahuja, Mehlhorn, Orlin, Tarjan,
// "Faster algorithms for the shortest path problem", JACM 1990) over one
// intrusive slot per node. The loop keeps at most one pending wake per
// node and only ever registers rounds after the current one, so a node's
// queue entry can live in a fixed per-node slot (its round and a next
// link) and the queue never allocates after construction.
//
// Radix layout (DESIGN.md §7): `last_` is the most recent round that
// popped nodes, a lower bound on every queued round. A node queued for
// round r sits in bucket msb(r ^ last_), a FIFO list threaded through the
// slots; every bucket also keeps its minimum round. So:
//   * Push is O(1): one xor/clz, a tail append, a min update.
//   * NextRound is O(1): the minimum of the lowest occupied bucket.
//   * PopRound(r) settles only that bucket. Its round-r nodes go out and
//     the rest move to strictly lower buckets relative to the new
//     last_ = r, so a node moves at most 63 times between push and pop.
// Higher buckets stay correct when last_ rises to the minimum of the
// lowest occupied bucket, because that minimum shares every bit above the
// bucket's index with the old last_.
//
// Canonical order: a round pops in ascending node index. FIFO buckets keep
// the order of one ascending registration sweep, so a round registered in
// one earlier round pops sorted as it is. A round filled from several
// earlier rounds is a concatenation of ascending runs, which a bottom-up
// natural merge joins pairwise through a scratch buffer of n entries: R
// runs take ceil(log2 R) linear passes. A round of all n nodes is 0..n-1.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cstdint>
#include <numeric>
#include <vector>

#include "smst/faults/fault_plan.h"
#include "smst/graph/graph.h"

namespace smst {

class WakeQueue {
 public:
  explicit WakeQueue(std::size_t num_nodes)
      : slots_(num_nodes), scratch_(num_nodes) {}

  bool Empty() const { return occupied_ == 0; }

  // Earliest queued round, kMaxRound if none.
  Round NextRound() const {
    return occupied_ == 0 ? kMaxRound
                          : buckets_[std::countr_zero(occupied_)].min;
  }

  // True iff v was pushed and not popped yet.
  bool Pending(NodeIndex v) const { return slots_[v].round > clock_; }

  // The round v was last pushed for (0 if never). Between PopRound(r) and
  // v's next Push this equals r exactly for the nodes popped in round r,
  // which is how the loop tests "receiver awake in this round".
  Round RoundOf(NodeIndex v) const { return slots_[v].round; }

  // Queues v for round r. Requires !Pending(v) and r after the last round
  // passed to PopRound.
  void Push(NodeIndex v, Round r) {
    assert(!Pending(v) && r > clock_);
    slots_[v].round = r;
    Append(BucketOf(r), v);
  }

  // Advances the clock to round r, which must not pass NextRound(), and
  // replaces `out` with the nodes due in r, ascending. A round below
  // NextRound() pops nothing: the sharded reducer stages global rounds in
  // which a shard has no local waker.
  void PopRound(Round r, std::vector<NodeIndex>& out) {
    assert(r > clock_ && r <= NextRound());
    clock_ = r;
    out.clear();
    if (r != NextRound()) return;
    const int b = std::countr_zero(occupied_);
    NodeIndex v = buckets_[b].head;
    buckets_[b] = Bucket{};
    occupied_ &= occupied_ - 1;
    last_ = r;
    bool sorted = true;
    while (v != kInvalidNode) {
      const NodeIndex next = slots_[v].next;
      if (slots_[v].round == r) {
        if (!out.empty() && v < out.back()) sorted = false;
        out.push_back(v);
      } else {
        Append(BucketOf(slots_[v].round), v);
      }
      v = next;
    }
    if (sorted) return;
    // A set of n distinct nodes is every node.
    if (out.size() == slots_.size()) {
      std::iota(out.begin(), out.end(), NodeIndex{0});
    } else {
      MergeRuns(out);
    }
  }

 private:
  struct Slot {
    Round round = 0;
    NodeIndex next = kInvalidNode;
  };
  struct Bucket {
    Round min = kMaxRound;
    NodeIndex head = kInvalidNode;
    NodeIndex tail = kInvalidNode;
  };

  // Sorts `out`, a concatenation of ascending runs: each pass merges
  // adjacent runs pairwise into the other buffer until one run is left.
  void MergeRuns(std::vector<NodeIndex>& out) {
    const std::size_t k = out.size();
    NodeIndex* src = out.data();
    NodeIndex* dst = scratch_.data();
    std::size_t runs;
    do {
      runs = 0;
      for (std::size_t begin = 0; begin < k; ++runs) {
        NodeIndex* const mid = std::is_sorted_until(src + begin, src + k);
        NodeIndex* const end = std::is_sorted_until(mid, src + k);
        std::merge(src + begin, mid, mid, end, dst + begin);
        begin = static_cast<std::size_t>(end - src);
      }
      std::swap(src, dst);
    } while (runs > 1);
    if (src != out.data()) std::copy(src, src + k, out.data());
  }

  // r > clock_ >= last_, so r ^ last_ is nonzero.
  int BucketOf(Round r) const { return 63 - std::countl_zero(r ^ last_); }

  void Append(int b, NodeIndex v) {
    Bucket& bucket = buckets_[b];
    slots_[v].next = kInvalidNode;
    if (bucket.head == kInvalidNode) {
      bucket.head = v;
      occupied_ |= std::uint64_t{1} << b;
    } else {
      slots_[bucket.tail].next = v;
    }
    bucket.tail = v;
    bucket.min = std::min(bucket.min, slots_[v].round);
  }

  std::vector<Slot> slots_;
  std::vector<NodeIndex> scratch_;  // MergeRuns' second buffer
  std::array<Bucket, 64> buckets_{};
  std::uint64_t occupied_ = 0;  // bit b set iff bucket b is nonempty
  Round last_ = 0;   // radix reference: the last round that popped nodes
  Round clock_ = 0;  // the last round passed to PopRound
};

}  // namespace smst
