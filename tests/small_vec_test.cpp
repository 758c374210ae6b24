// SmallVec unit tests: inline/heap growth, move semantics, and the
// exception paths of growth (run under the ASan CI job, which also
// checks the raw-storage lifetime handling for leaks).
#include "smst/util/small_vec.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace smst {
namespace {

TEST(SmallVecTest, StartsInlineAndEmpty) {
  SmallVec<int, 4> v;
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.size(), 0u);
  EXPECT_EQ(v.capacity(), 4u);
  EXPECT_TRUE(v.is_inline());
}

TEST(SmallVecTest, StaysInlineUpToCapacity) {
  SmallVec<int, 4> v;
  for (int i = 0; i < 4; ++i) v.push_back(i);
  EXPECT_TRUE(v.is_inline());
  EXPECT_EQ(v.size(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(v[i], i);
}

TEST(SmallVecTest, SpillsToHeapBeyondInlineCapacity) {
  SmallVec<int, 4> v;
  for (int i = 0; i < 100; ++i) v.push_back(i);
  EXPECT_FALSE(v.is_inline());
  EXPECT_EQ(v.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(v[i], i);
}

TEST(SmallVecTest, ReserveBeyondInlineMovesExistingElements) {
  SmallVec<std::string, 2> v;
  v.push_back("alpha");
  v.push_back("beta");
  v.reserve(16);
  EXPECT_FALSE(v.is_inline());
  EXPECT_GE(v.capacity(), 16u);
  EXPECT_EQ(v[0], "alpha");
  EXPECT_EQ(v[1], "beta");
}

TEST(SmallVecTest, ClearKeepsHeapCapacity) {
  SmallVec<int, 2> v;
  for (int i = 0; i < 50; ++i) v.push_back(i);
  const std::size_t cap = v.capacity();
  v.clear();
  EXPECT_EQ(v.size(), 0u);
  EXPECT_EQ(v.capacity(), cap);
  EXPECT_FALSE(v.is_inline());
}

TEST(SmallVecTest, InitializerListAndEquality) {
  SmallVec<int, 4> a{1, 2, 3};
  SmallVec<int, 4> b{1, 2, 3};
  SmallVec<int, 4> c{1, 2, 4};
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
}

TEST(SmallVecTest, MoveFromInlineLeavesSourceEmpty) {
  SmallVec<std::string, 4> a;
  a.push_back("x");
  a.push_back("y");
  SmallVec<std::string, 4> b(std::move(a));
  EXPECT_EQ(b.size(), 2u);
  EXPECT_EQ(b[0], "x");
  EXPECT_TRUE(a.empty());  // NOLINT(bugprone-use-after-move): specified
  EXPECT_TRUE(a.is_inline());
}

TEST(SmallVecTest, MoveFromHeapStealsBuffer) {
  SmallVec<int, 2> a;
  for (int i = 0; i < 20; ++i) a.push_back(i);
  const int* data_before = a.data();
  SmallVec<int, 2> b(std::move(a));
  EXPECT_EQ(b.data(), data_before);  // no copy, pointer stolen
  EXPECT_EQ(b.size(), 20u);
  EXPECT_TRUE(a.empty());  // NOLINT(bugprone-use-after-move): specified
}

TEST(SmallVecTest, MoveAssignReleasesOldContents) {
  SmallVec<std::string, 2> a;
  for (int i = 0; i < 10; ++i) a.push_back("a" + std::to_string(i));
  SmallVec<std::string, 2> b;
  b.push_back("old");
  b = std::move(a);
  EXPECT_EQ(b.size(), 10u);
  EXPECT_EQ(b[9], "a9");
}

TEST(SmallVecTest, CopyIsDeepInlineAndHeap) {
  SmallVec<int, 2> heap;
  for (int i = 0; i < 10; ++i) heap.push_back(i);
  SmallVec<int, 2> heap_copy(heap);
  heap_copy[0] = 99;
  EXPECT_EQ(heap[0], 0);
  EXPECT_EQ(heap_copy.size(), heap.size());

  SmallVec<int, 8> inl{1, 2};
  SmallVec<int, 8> inl_copy;
  inl_copy = inl;
  inl_copy[1] = 7;
  EXPECT_EQ(inl[1], 2);
}

TEST(SmallVecTest, PopBackAndResize) {
  SmallVec<int, 4> v{1, 2, 3};
  v.pop_back();
  EXPECT_EQ(v.size(), 2u);
  v.resize(6);
  EXPECT_EQ(v.size(), 6u);
  EXPECT_EQ(v[5], 0);  // value-initialized
  v.resize(1);
  EXPECT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0], 1);
}

// The header keeps 32-bit counts: growing past 2^32 - 1 elements throws
// before anything is allocated, and leaves the vector as it was.
TEST(SmallVecTest, GrowthPastThe32BitCountThrows) {
  SmallVec<int, 4> v{1, 2};
  const std::size_t too_many = std::size_t{1} << 32;
  EXPECT_EQ((SmallVec<int, 4>::max_size()), too_many - 1);
  EXPECT_THROW(v.reserve(too_many), std::length_error);
  EXPECT_THROW(v.resize(too_many), std::length_error);
  EXPECT_THROW(v.reserve(~std::size_t{0}), std::length_error);
  EXPECT_EQ(v.size(), 2u);
  EXPECT_EQ(v.capacity(), 4u);
  EXPECT_TRUE(v.is_inline());
  EXPECT_EQ(v[1], 2);
}

TEST(SmallVecTest, WorksAsContiguousRangeForSpan) {
  SmallVec<int, 4> v{10, 20, 30};
  std::span<const int> s = v;
  ASSERT_EQ(s.size(), 3u);
  EXPECT_EQ(s[2], 30);
}

// --- exception paths ---------------------------------------------------

// Copy-only type whose copy constructor throws on demand; SmallVec's
// growth must then use copies (move_if_noexcept) and give the strong
// guarantee.
struct Thrower {
  static inline bool armed = false;
  static inline int live = 0;
  int value = 0;

  explicit Thrower(int v) : value(v) { ++live; }
  Thrower(const Thrower& o) : value(o.value) {
    if (armed) throw std::runtime_error("copy blew up");
    ++live;
  }
  Thrower& operator=(const Thrower&) = delete;
  ~Thrower() { --live; }
};

TEST(SmallVecTest, GrowthWithThrowingCopyGivesStrongGuarantee) {
  Thrower::armed = false;
  {
    SmallVec<Thrower, 2> v;
    v.emplace_back(1);
    v.emplace_back(2);
    ASSERT_TRUE(v.is_inline());
    Thrower::armed = true;  // the growth copy must now throw
    EXPECT_THROW(v.emplace_back(3), std::runtime_error);
    Thrower::armed = false;
    // Untouched: still inline, both elements intact.
    EXPECT_TRUE(v.is_inline());
    ASSERT_EQ(v.size(), 2u);
    EXPECT_EQ(v[0].value, 1);
    EXPECT_EQ(v[1].value, 2);
    // And the vector still works afterwards.
    v.emplace_back(3);
    EXPECT_EQ(v[2].value, 3);
    EXPECT_FALSE(v.is_inline());
  }
  EXPECT_EQ(Thrower::live, 0);  // no leaked constructions on any path
}

TEST(SmallVecTest, DestructionRunsElementDestructors) {
  Thrower::armed = false;
  {
    SmallVec<Thrower, 2> v;
    for (int i = 0; i < 9; ++i) v.emplace_back(i);
    EXPECT_EQ(Thrower::live, 9);
  }
  EXPECT_EQ(Thrower::live, 0);
}

}  // namespace
}  // namespace smst
