#include "smst/util/prng.h"

#include <array>
#include <numeric>
#include <stdexcept>
#include <string>

#include "smst/util/flat_key_set.h"

namespace smst {

Xoshiro256 Xoshiro256::Split(std::uint64_t stream_id) const {
  // Mix current state with the stream id through SplitMix64 so substreams
  // of the same parent are independent of each other and of the parent.
  SplitMix64 sm(state_[0] ^ (state_[2] * 0x9e3779b97f4a7c15ULL) ^
                (stream_id + 0x632be59bd9b4e019ULL));
  return Xoshiro256(sm.Next());
}

namespace {

// Sorts values of [lo, lo + range] ascending: an LSD radix sort over the
// bytes of value - lo, one stable counting pass per significant byte of
// `range` (three for the weights of any graph up to 2^20 edges).
void RadixSortInRange(std::vector<std::uint64_t>& values, std::uint64_t lo,
                      std::uint64_t range) {
  if (values.size() < 2) return;
  std::vector<std::uint64_t> scratch(values.size());
  for (int shift = 0; shift < 64 && (range >> shift) != 0; shift += 8) {
    // start[b + 1] counts byte b; the prefix sums then make start[b] the
    // first output slot of byte b.
    std::array<std::size_t, 257> start{};
    for (const std::uint64_t v : values) {
      ++start[(((v - lo) >> shift) & 0xff) + 1];
    }
    for (std::size_t b = 1; b < start.size(); ++b) start[b] += start[b - 1];
    for (const std::uint64_t v : values) {
      scratch[start[((v - lo) >> shift) & 0xff]++] = v;
    }
    values.swap(scratch);
  }
}

}  // namespace

std::vector<std::uint64_t> SampleDistinct(std::uint64_t lo, std::uint64_t hi,
                                          std::size_t count, Xoshiro256& rng) {
  auto where = [lo, hi] {
    return "[" + std::to_string(lo) + ", " + std::to_string(hi) + "]";
  };
  if (hi < lo) {
    throw std::invalid_argument("SampleDistinct: empty range " + where());
  }
  const std::uint64_t range = hi - lo;  // inclusive range size - 1
  // count > range + 1, without overflow when [lo, hi] is all of uint64.
  if (count > 0 && count - 1 > range) {
    throw std::invalid_argument("SampleDistinct: " + std::to_string(count) +
                                " distinct values requested from " + where());
  }
  // Floyd's algorithm: O(count) expected draws, no rejection blowup even
  // when count is close to the range size. Step j (the top `count`
  // offsets of the range, ascending) draws from [lo, lo + j] and takes
  // lo + j instead when the draw is already taken.
  std::vector<std::uint64_t> out;
  out.reserve(count);  // first: throws std::length_error for absurd counts
  if (count > 0 && count - 1 == range) {
    // A full range: steps j = 0..range between them take every value,
    // whatever they draw. Make the same draws (j + 1 < 2^64 here, as
    // count fits a size_t) from a local copy, which stays in registers.
    Xoshiro256 local = rng;
    for (std::uint64_t j = 0; j < count; ++j) local.NextBelow(j + 1);
    rng = local;
    out.resize(count);
    std::iota(out.begin(), out.end(), lo);
    return out;
  }
  FlatKeySet chosen(count);
  const std::uint64_t first = range - (count - 1);  // unused when count == 0
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t j = first + i;
    // j + 1 == 2^64 only on the full 64-bit range: a raw draw is exactly
    // NextBelow(2^64).
    std::uint64_t t = lo + (j == ~std::uint64_t{0} ? rng.Next()
                                                  : rng.NextBelow(j + 1));
    if (!chosen.Insert(t)) {
      t = lo + j;
      chosen.Insert(t);
    }
    out.push_back(t);
  }
  RadixSortInRange(out, lo, range);
  return out;
}

std::vector<std::uint64_t> SampleIds(std::size_t n, std::uint64_t max_id,
                                     Xoshiro256& rng) {
  std::vector<std::uint64_t> ids = SampleDistinct(1, max_id, n, rng);
  Shuffle(ids, rng);
  return ids;
}

}  // namespace smst
