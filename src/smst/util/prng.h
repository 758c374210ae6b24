// Deterministic, seedable pseudo-random number generation.
//
// Everything random in this library flows from a single run seed through
// SplitMix64-derived streams, so whole simulations are bit-reproducible.
// We provide xoshiro256** as the workhorse generator (fast, 256-bit state,
// passes BigCrush) and SplitMix64 for seeding / stream splitting, following
// the generators' reference constructions.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <vector>

namespace smst {

// SplitMix64: tiny 64-bit generator used to expand seeds and derive
// independent substreams. One step per output.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) : state_(seed) {}

  constexpr std::uint64_t Next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

// xoshiro256**: general-purpose generator. Satisfies the C++
// UniformRandomBitGenerator concept so it composes with <random> if needed.
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  explicit Xoshiro256(std::uint64_t seed) {
    SplitMix64 sm(seed);
    for (auto& s : state_) s = sm.Next();
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() { return Next(); }

  std::uint64_t Next() {
    const std::uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  // Unbiased uniform draw from [0, bound) via Lemire rejection.
  // Precondition: bound > 0.
  std::uint64_t NextBelow(std::uint64_t bound);

  // Uniform draw from the inclusive range [lo, hi]. Precondition: lo <= hi.
  std::uint64_t NextInRange(std::uint64_t lo, std::uint64_t hi) {
    return lo + NextBelow(hi - lo + 1);
  }

  // Fair coin. True with probability 1/2.
  bool NextCoin() { return (Next() >> 63) != 0; }

  // Uniform double in [0, 1) with 53 bits of randomness.
  double NextDouble() {
    return static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }

  // Derive an independent substream; `stream_id` distinguishes children.
  Xoshiro256 Split(std::uint64_t stream_id) const;

 private:
  static constexpr std::uint64_t Rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

// Fisher-Yates shuffle driven by our generator (std::shuffle's result is
// implementation-defined across standard libraries; this one is stable).
template <typename T>
void Shuffle(std::vector<T>& items, Xoshiro256& rng) {
  for (std::size_t i = items.size(); i > 1; --i) {
    std::size_t j = rng.NextBelow(i);
    using std::swap;
    swap(items[i - 1], items[j]);
  }
}

// Draws `count` distinct uint64 values from [lo, hi], sorted ascending.
// Used for unique edge weights (the paper assumes distinct weights, which
// makes the MST unique). Throws std::invalid_argument when hi < lo or
// count > hi - lo + 1. Makes at most three allocations, whatever the
// count: the result, Floyd's membership table (util/flat_key_set.h) and
// the radix sort's scratch buffer.
std::vector<std::uint64_t> SampleDistinct(std::uint64_t lo, std::uint64_t hi,
                                          std::size_t count, Xoshiro256& rng);

// Returns a random permutation of {1, ..., n} (used for node IDs in [1, N]
// when N == n) or a sorted random subset of size n of {1, ..., N} shuffled
// (when N > n). Throws std::invalid_argument when N < n.
std::vector<std::uint64_t> SampleIds(std::size_t n, std::uint64_t max_id,
                                     Xoshiro256& rng);

}  // namespace smst
