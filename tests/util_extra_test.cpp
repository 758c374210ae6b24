// Tests for stats, args, and the extra graph generators.
#include <gtest/gtest.h>

#include "smst/graph/generators.h"
#include "smst/graph/mst_reference.h"
#include "smst/graph/properties.h"
#include "smst/util/args.h"
#include "smst/util/stats.h"

namespace smst {
namespace {

// ------------------------------------------------------------- stats ---

TEST(StatsTest, SummaryOfKnownSample) {
  auto s = Summarize({2, 4, 4, 4, 5, 5, 7, 9});
  EXPECT_EQ(s.count, 8u);
  EXPECT_DOUBLE_EQ(s.mean, 5.0);
  EXPECT_DOUBLE_EQ(s.stddev, 2.0);  // the textbook example
  EXPECT_DOUBLE_EQ(s.min, 2.0);
  EXPECT_DOUBLE_EQ(s.max, 9.0);
  EXPECT_DOUBLE_EQ(s.median, 4.5);
}

TEST(StatsTest, EmptySummaryIsZero) {
  auto s = Summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.mean, 0.0);
}

TEST(StatsTest, QuantileInterpolates) {
  std::vector<double> v{10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(Quantile(v, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 1.0), 40.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 0.5), 25.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 1.0 / 3.0), 20.0);
}

// -------------------------------------------------------------- args ---

ArgParser Parse(std::initializer_list<const char*> tokens) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), tokens.begin(), tokens.end());
  return ArgParser(static_cast<int>(argv.size()), argv.data());
}

TEST(ArgsTest, SpaceAndEqualsForms) {
  auto a = Parse({"--n", "42", "--p=0.5", "--verbose"});
  EXPECT_EQ(a.GetUint("n", 0), 42u);
  EXPECT_DOUBLE_EQ(a.GetDouble("p", 0), 0.5);
  EXPECT_TRUE(a.GetBool("verbose", false));
  EXPECT_EQ(a.GetString("missing", "dflt"), "dflt");
}

TEST(ArgsTest, BooleanSwitchBeforeAnotherFlag) {
  auto a = Parse({"--quiet", "--n", "7"});
  EXPECT_TRUE(a.GetBool("quiet", false));
  EXPECT_EQ(a.GetUint("n", 0), 7u);
}

TEST(ArgsTest, RejectsNonFlagToken) {
  EXPECT_THROW(Parse({"positional"}), std::invalid_argument);
}

TEST(ArgsTest, RejectsRepeatedFlagInEitherForm) {
  const auto expect_rejected = [](std::initializer_list<const char*> tokens,
                                  const std::string& flag) {
    try {
      Parse(tokens);
      ADD_FAILURE() << flag << " given twice was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(flag), std::string::npos)
          << e.what();
    }
  };
  expect_rejected({"--n", "64", "--n", "128"}, "--n");
  expect_rejected({"--n=64", "--n=128"}, "--n");
  expect_rejected({"--n", "64", "--seed", "3", "--n=128"}, "--n");
  expect_rejected({"--quiet", "--quiet"}, "--quiet");
}

TEST(ArgsTest, RejectsMalformedNumbers) {
  auto a = Parse({"--n", "12x"});
  EXPECT_THROW(a.GetUint("n", 0), std::invalid_argument);
  auto b = Parse({"--p", "0.5q"});
  EXPECT_THROW(b.GetDouble("p", 0), std::invalid_argument);
  auto c = Parse({"--flag", "maybe"});
  EXPECT_THROW(c.GetBool("flag", false), std::invalid_argument);
}

TEST(ArgsTest, GetUintRejectsNegativeAndExoticForms) {
  // strtoull would happily wrap "-1" to 2^64-1 and parse "0x10"/"+5";
  // the parser now accepts plain decimal digits only.
  for (const char* bad : {"-1", "+5", " 7", "7 ", "0x10", ""}) {
    auto a = Parse({"--n", bad});
    EXPECT_THROW(a.GetUint("n", 0), std::invalid_argument) << "'" << bad << "'";
  }
  auto overflow = Parse({"--n", "99999999999999999999"});  // > 2^64-1
  EXPECT_THROW(overflow.GetUint("n", 0), std::invalid_argument);
  auto max = Parse({"--n", "18446744073709551615"});  // == 2^64-1: fine
  EXPECT_EQ(max.GetUint("n", 0), 18446744073709551615ull);
  auto zero = Parse({"--n", "0"});
  EXPECT_EQ(zero.GetUint("n", 1), 0u);
}

TEST(ArgsTest, GetUint32RejectsValuesPast32Bits) {
  // 2^32 + 2 must not wrap to 2.
  auto wide = Parse({"--shards", "4294967298"});
  try {
    wide.GetUint32("shards", 0);
    ADD_FAILURE() << "2^32 + 2 was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--shards"), std::string::npos)
        << e.what();
  }
  auto max = Parse({"--shards", "4294967295"});  // == 2^32-1: fine
  EXPECT_EQ(max.GetUint32("shards", 0), 4294967295u);
  auto absent = Parse({});
  EXPECT_EQ(absent.GetUint32("shards", 7), 7u);
}

TEST(ArgsTest, GetDoubleRejectsNonFiniteAndGarbage) {
  for (const char* bad : {"nan", "inf", "-inf", "1e999", "", " 1.5", "1.5 ",
                          "0.5q", "--3", "0x1p-3", "+0.5"}) {
    auto a = Parse({"--p", bad});
    EXPECT_THROW(a.GetDouble("p", 0), std::invalid_argument)
        << "'" << bad << "'";
  }
  auto ok = Parse({"--p", "-2.5e-3"});
  EXPECT_DOUBLE_EQ(ok.GetDouble("p", 0), -2.5e-3);
}

TEST(ArgsTest, UnusedFlagDetection) {
  auto a = Parse({"--n", "1", "--typo", "2"});
  EXPECT_EQ(a.GetUint("n", 0), 1u);
  auto unused = a.UnusedFlags();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "typo");
}

// --------------------------------------------------- new generators ----

TEST(GeneratorsExtraTest, Hypercube) {
  Xoshiro256 rng(1);
  auto g = MakeHypercube(4, rng);
  EXPECT_EQ(g.NumNodes(), 16u);
  EXPECT_EQ(g.NumEdges(), 32u);  // n*d/2
  for (NodeIndex v = 0; v < 16; ++v) EXPECT_EQ(g.DegreeOf(v), 4u);
  EXPECT_EQ(ExactDiameter(g), 4u);
  EXPECT_THROW(MakeHypercube(0, rng), std::invalid_argument);
}

TEST(GeneratorsExtraTest, Caterpillar) {
  Xoshiro256 rng(2);
  auto g = MakeCaterpillar(10, rng);
  EXPECT_EQ(g.NumNodes(), 20u);
  EXPECT_EQ(g.NumEdges(), 19u);  // a tree
  EXPECT_EQ(ExactDiameter(g), 11u);  // leaf-spine...spine-leaf
}

TEST(GeneratorsExtraTest, Lollipop) {
  Xoshiro256 rng(3);
  auto g = MakeLollipop(20, rng);
  EXPECT_EQ(g.NumNodes(), 20u);
  // head K10 (45 edges) + tail path of 10 extra nodes (10 edges... the
  // path re-uses the last head node, so 20-10 = 10 tail edges).
  EXPECT_EQ(g.NumEdges(), 45u + 10u);
  EXPECT_EQ(ExactDiameter(g), 11u);
}

TEST(GeneratorsExtraTest, MstWorksOnAllNewFamilies) {
  Xoshiro256 rng(4);
  for (auto g : {MakeHypercube(4, rng), MakeCaterpillar(12, rng),
                 MakeLollipop(16, rng)}) {
    auto k = KruskalMst(g);
    auto p = PrimMst(g);
    EXPECT_EQ(k, p);
    EXPECT_EQ(k.size(), g.NumNodes() - 1);
  }
}

}  // namespace
}  // namespace smst
