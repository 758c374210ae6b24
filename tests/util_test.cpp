#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <set>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "smst/util/fit.h"
#include "smst/util/prng.h"
#include "smst/util/table.h"

namespace smst {
namespace {

TEST(SplitMix64Test, KnownSequenceIsDeterministic) {
  SplitMix64 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(SplitMix64Test, DifferentSeedsDiffer) {
  SplitMix64 a(1), b(2);
  EXPECT_NE(a.Next(), b.Next());
}

TEST(Xoshiro256Test, Deterministic) {
  Xoshiro256 a(7), b(7);
  for (int i = 0; i < 1000; ++i) ASSERT_EQ(a.Next(), b.Next());
}

TEST(Xoshiro256Test, NextBelowStaysInRange) {
  Xoshiro256 rng(3);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
}

TEST(Xoshiro256Test, NextBelowOneIsAlwaysZero) {
  Xoshiro256 rng(3);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.NextBelow(1), 0u);
}

TEST(Xoshiro256Test, NextInRangeInclusive) {
  Xoshiro256 rng(3);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    auto v = rng.NextInRange(5, 8);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 8u);
    saw_lo |= v == 5;
    saw_hi |= v == 8;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Xoshiro256Test, CoinIsRoughlyFair) {
  Xoshiro256 rng(11);
  int heads = 0;
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) heads += rng.NextCoin() ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(heads) / trials, 0.5, 0.01);
}

TEST(Xoshiro256Test, DoubleInUnitInterval) {
  Xoshiro256 rng(13);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double d = rng.NextDouble();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Xoshiro256Test, SplitStreamsAreIndependentAndDeterministic) {
  Xoshiro256 parent(99);
  Xoshiro256 c1 = parent.Split(0);
  Xoshiro256 c2 = parent.Split(1);
  Xoshiro256 c1_again = parent.Split(0);
  EXPECT_NE(c1.Next(), c2.Next());
  Xoshiro256 c1_ref = parent.Split(0);
  EXPECT_EQ(c1_again.Next(), c1_ref.Next());
}

TEST(ShuffleTest, IsAPermutation) {
  Xoshiro256 rng(5);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8, 9};
  auto orig = v;
  Shuffle(v, rng);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(SampleDistinctTest, DistinctSortedWithinRange) {
  Xoshiro256 rng(17);
  auto s = SampleDistinct(10, 1000, 200, rng);
  ASSERT_EQ(s.size(), 200u);
  EXPECT_TRUE(std::is_sorted(s.begin(), s.end()));
  std::set<std::uint64_t> uniq(s.begin(), s.end());
  EXPECT_EQ(uniq.size(), 200u);
  EXPECT_GE(s.front(), 10u);
  EXPECT_LE(s.back(), 1000u);
}

TEST(SampleDistinctTest, ExhaustiveRangeIsFullRange) {
  // count == hi - lo + 1 returns lo..hi, and the generator ends where
  // Floyd's steps leave it: after NextBelow(1), ..., NextBelow(count).
  for (const std::uint64_t lo : {std::uint64_t{0}, std::uint64_t{1},
                                 std::uint64_t{1} << 40}) {
    for (const std::size_t count : {1, 2, 3, 50, 1000}) {
      Xoshiro256 rng(17);
      Xoshiro256 floyd(17);
      const auto s = SampleDistinct(lo, lo + count - 1, count, rng);
      ASSERT_EQ(s.size(), count);
      for (std::size_t i = 0; i < count; ++i) EXPECT_EQ(s[i], lo + i);
      for (std::uint64_t j = 1; j <= count; ++j) floyd.NextBelow(j);
      EXPECT_EQ(rng.Next(), floyd.Next()) << "lo=" << lo << " count=" << count;
    }
  }
}

TEST(SampleIdsTest, DistinctIdsInRange) {
  Xoshiro256 rng(23);
  auto ids = SampleIds(100, 1000, rng);
  ASSERT_EQ(ids.size(), 100u);
  std::set<std::uint64_t> uniq(ids.begin(), ids.end());
  EXPECT_EQ(uniq.size(), 100u);
  for (auto id : ids) {
    EXPECT_GE(id, 1u);
    EXPECT_LE(id, 1000u);
  }
}

// Floyd's draws and the sorted sample at fixed seeds, pinned as one FNV-1a
// digest per case over the values and the generator's next output (which
// pins the number of draws). On a mismatch the test prints the case's
// actual row.
struct SampleGolden {
  std::uint64_t lo;
  std::uint64_t hi;
  std::uint64_t count;
  std::uint64_t seed;
  std::uint64_t digest;
};

constexpr std::uint64_t kTop = ~std::uint64_t{0};

// clang-format off
const SampleGolden kSampleGolden[] = {
    {10, 1000, 200, 17, 0xeec7b311557b73c3ull},
    {1, 50, 50, 17, 0xafb4d9295cce4a61ull},
    {7, 70, 64, 3, 0x384fe7f65c930f85ull},
    {1, 1ull << 24, 4096, 1, 0x22c78a6bb59f5155ull},
    {1, 1ull << 24, 1, 2, 0x113fffe24eaa136cull},
    {42, 42, 1, 4, 0xdb3ef7980bbcc153ull},
    {3, 99, 0, 5, 0xf7c6fa67611430b6ull},
    {1, 1000000, 100, 12, 0xe4fd585afccbf222ull},
    {5, (1ull << 40) + 5, 1000, 6, 0x5b0ca9424f44548ull},
    {1, (1ull << 33) + 7, 300, 7, 0x8a275b12e6c57b75ull},
    {kTop - (1ull << 20), kTop, 500, 8, 0xd02feeb3d05f632dull},
    {1ull << 63, kTop, 64, 9, 0x4e73e5df1a5ce06cull},
    {kTop - 9, kTop, 10, 10, 0xad602112e2756087ull},
    {1, kTop, 100, 11, 0x9ce957c8a84775aull},
};
// clang-format on

std::uint64_t SampleDigest(const std::vector<std::uint64_t>& values,
                           Xoshiro256& rng) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto word = [&h](std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h ^= (x >> (8 * i)) & 0xff;
      h *= 0x100000001b3ull;
    }
  };
  word(values.size());
  for (const std::uint64_t v : values) word(v);
  word(rng.Next());
  return h;
}

TEST(SampleDistinctTest, DrawsMatchTheRecords) {
  ASSERT_GT(std::size(kSampleGolden), 0u);
  for (const SampleGolden& c : kSampleGolden) {
    Xoshiro256 rng(c.seed);
    const auto values = SampleDistinct(c.lo, c.hi, c.count, rng);
    ASSERT_EQ(values.size(), c.count);
    EXPECT_TRUE(std::is_sorted(values.begin(), values.end()));
    const std::uint64_t digest = SampleDigest(values, rng);
    EXPECT_EQ(digest, c.digest)
        << "{" << c.lo << "ull, " << c.hi << "ull, " << c.count << ", "
        << c.seed << ", 0x" << std::hex << digest << "ull},";
  }
}

TEST(SampleDistinctTest, RejectsCountAboveRangeSize) {
  Xoshiro256 rng(17);
  EXPECT_THROW(SampleDistinct(1, 3, 4, rng), std::invalid_argument);
  EXPECT_THROW(SampleDistinct(10, 12, 5, rng), std::invalid_argument);
  EXPECT_THROW(SampleDistinct(kTop, kTop, 2, rng), std::invalid_argument);
}

TEST(SampleDistinctTest, RejectsEmptyRange) {
  Xoshiro256 rng(17);
  EXPECT_THROW(SampleDistinct(5, 4, 0, rng), std::invalid_argument);
  EXPECT_THROW(SampleDistinct(kTop, 0, 1, rng), std::invalid_argument);
}

TEST(SampleDistinctTest, FullSixtyFourBitRange) {
  // hi - lo + 1 is 2^64 here: the count bound must not overflow, and
  // Floyd's last step draws from all of uint64.
  Xoshiro256 rng(17);
  EXPECT_TRUE(SampleDistinct(0, kTop, 0, rng).empty());
  const auto s = SampleDistinct(0, kTop, 64, rng);
  ASSERT_EQ(s.size(), 64u);
  EXPECT_TRUE(std::is_sorted(s.begin(), s.end()));
  EXPECT_EQ(std::set<std::uint64_t>(s.begin(), s.end()).size(), 64u);
  // A count no memory could hold is within the range's size here; it is
  // refused before anything is drawn or sized.
  EXPECT_THROW(SampleDistinct(0, kTop, kTop, rng), std::length_error);
}

TEST(SampleIdsTest, RejectsRangeBelowCount) {
  Xoshiro256 rng(23);
  EXPECT_THROW(SampleIds(20, 10, rng), std::invalid_argument);
}

TEST(TableTest, FormatsAlignedColumns) {
  Table t({"name", "value"});
  t.AddRow({"alpha", "1"});
  t.AddRow({"b", "12345"});
  const std::string s = t.ToString();
  EXPECT_NE(s.find("| name  |"), std::string::npos);
  EXPECT_NE(s.find("12345"), std::string::npos);
  // Every line has equal width.
  std::size_t first_nl = s.find('\n');
  std::size_t width = first_nl;
  for (std::size_t pos = 0; pos < s.size();) {
    std::size_t nl = s.find('\n', pos);
    EXPECT_EQ(nl - pos, width);
    pos = nl + 1;
  }
}

TEST(TableTest, ShortRowsArePadded) {
  Table t({"a", "b", "c"});
  t.AddRow({"x"});
  EXPECT_NE(t.ToString().find("x"), std::string::npos);
}

TEST(FitTest, RecoversLinearScaling) {
  std::vector<double> x{100, 200, 400, 800, 1600};
  std::vector<double> y;
  for (double v : x) y.push_back(3.5 * v);
  EXPECT_EQ(FitAll(x, y, StandardModels()).front().model, "n");
  auto fit = FitOne(x, y, {"n", [](double n) { return n; }});
  EXPECT_NEAR(fit.constant, 3.5, 1e-9);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-9);
}

TEST(FitTest, RecoversLogScaling) {
  std::vector<double> x{64, 256, 1024, 4096, 16384};
  std::vector<double> y;
  for (double v : x) y.push_back(2.0 * std::log2(v) + 0.01);
  EXPECT_EQ(FitAll(x, y, StandardModels()).front().model, "log n");
}

TEST(FitTest, RecoversNLogN) {
  std::vector<double> x{64, 256, 1024, 4096};
  std::vector<double> y;
  for (double v : x) y.push_back(0.7 * v * std::log2(v));
  EXPECT_EQ(FitAll(x, y, StandardModels()).front().model, "n log n");
}

TEST(FitTest, AllModelsSortedByR2) {
  std::vector<double> x{10, 100, 1000};
  std::vector<double> y{1, 2, 3};
  auto fits = FitAll(x, y, StandardModels());
  for (std::size_t i = 1; i < fits.size(); ++i) {
    EXPECT_GE(fits[i - 1].r_squared, fits[i].r_squared);
  }
}

}  // namespace
}  // namespace smst
