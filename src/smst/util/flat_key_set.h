// FlatKeySet: an insert-only set of std::uint64_t keys, for duplicate
// detection during graph set-up.
//
// SampleDistinct's Floyd loop and GraphBuilder::Build's distinct-weight,
// simple-graph and distinct-ID checks each ask "seen before?" once per
// element. A node-based std::unordered_set answers with one heap
// allocation per key; this table makes one allocation in all, at
// construction: open addressing with linear probing over a power-of-two
// array of at least 2 * max_keys slots (load factor <= 1/2), indexed by
// the SplitMix64 finalizer of the key.
//
// Every key value is accepted. Slot value 0 marks an empty slot, so key 0
// is tracked by a flag of its own. The set is never iterated — there is
// no iteration API — so hash order cannot reach any output.
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace smst {

class FlatKeySet {
 public:
  // Room for up to `max_keys` insertions. Precondition: max_keys is at
  // most a vector's max_size(), so the slot count cannot overflow.
  explicit FlatKeySet(std::size_t max_keys)
      : slots_(std::bit_ceil(std::max<std::size_t>(2 * max_keys, 2))) {}

  // Inserts `key`; true iff it was not already present. Precondition: at
  // most max_keys successful insertions since construction or Clear().
  bool Insert(std::uint64_t key) {
    if (key == kEmpty) {
      if (has_empty_key_) return false;
      has_empty_key_ = true;
      return Added();
    }
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = Mix(key) & mask;; i = (i + 1) & mask) {
      if (slots_[i] == key) return false;
      if (slots_[i] == kEmpty) {
        slots_[i] = key;
        return Added();
      }
    }
  }

  // Empties the set, keeping its capacity.
  void Clear() {
    std::fill(slots_.begin(), slots_.end(), kEmpty);
    has_empty_key_ = false;
    size_ = 0;
  }

 private:
  static constexpr std::uint64_t kEmpty = 0;

  // SplitMix64's output finalizer (util/prng.h): a bijection whose low
  // bits depend on every key bit, so consecutive keys spread out.
  static constexpr std::uint64_t Mix(std::uint64_t z) {
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  // Keeps the load factor at most 1/2, so every probe ends at an empty
  // slot.
  bool Added() {
    ++size_;
    assert(2 * size_ <= slots_.size() && "FlatKeySet sized for fewer keys");
    return true;
  }

  std::vector<std::uint64_t> slots_;
  std::size_t size_ = 0;
  bool has_empty_key_ = false;
};

}  // namespace smst
