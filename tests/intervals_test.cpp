#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "util/intervals.hpp"
#include "util/rng.hpp"

namespace iop::util {
namespace {

TEST(IntervalSet, InsertDisjoint) {
  IntervalSet s;
  s.insert(0, 10);
  s.insert(20, 30);
  EXPECT_EQ(s.totalBytes(), 20u);
  EXPECT_EQ(s.intervalCount(), 2u);
}

TEST(IntervalSet, InsertCoalescesOverlap) {
  IntervalSet s;
  s.insert(0, 10);
  s.insert(5, 15);
  EXPECT_EQ(s.totalBytes(), 15u);
  EXPECT_EQ(s.intervalCount(), 1u);
}

TEST(IntervalSet, InsertCoalescesTouching) {
  IntervalSet s;
  s.insert(0, 10);
  s.insert(10, 20);
  EXPECT_EQ(s.intervalCount(), 1u);
  EXPECT_TRUE(s.contains(0, 20));
}

TEST(IntervalSet, InsertBridgesMultiple) {
  IntervalSet s;
  s.insert(0, 5);
  s.insert(10, 15);
  s.insert(20, 25);
  s.insert(3, 22);
  EXPECT_EQ(s.intervalCount(), 1u);
  EXPECT_EQ(s.totalBytes(), 25u);
}

TEST(IntervalSet, EmptyInsertIgnored) {
  IntervalSet s;
  s.insert(5, 5);
  EXPECT_TRUE(s.empty());
}

TEST(IntervalSet, EraseSplitsInterval) {
  IntervalSet s;
  s.insert(0, 30);
  s.erase(10, 20);
  EXPECT_EQ(s.intervalCount(), 2u);
  EXPECT_EQ(s.totalBytes(), 20u);
  EXPECT_TRUE(s.contains(0, 10));
  EXPECT_TRUE(s.contains(20, 30));
  EXPECT_FALSE(s.contains(9, 11));
}

TEST(IntervalSet, EraseAcrossIntervals) {
  IntervalSet s;
  s.insert(0, 10);
  s.insert(20, 30);
  s.insert(40, 50);
  s.erase(5, 45);
  EXPECT_EQ(s.totalBytes(), 10u);
  EXPECT_TRUE(s.contains(0, 5));
  EXPECT_TRUE(s.contains(45, 50));
}

TEST(IntervalSet, CoveredBytesPartial) {
  IntervalSet s;
  s.insert(10, 20);
  EXPECT_EQ(s.coveredBytes(0, 30), 10u);
  EXPECT_EQ(s.coveredBytes(15, 30), 5u);
  EXPECT_EQ(s.coveredBytes(0, 5), 0u);
}

TEST(IntervalSet, GapsEnumeration) {
  IntervalSet s;
  s.insert(10, 20);
  s.insert(30, 40);
  auto gaps = s.gaps(0, 50);
  ASSERT_EQ(gaps.size(), 3u);
  EXPECT_EQ(gaps[0], (IntervalSet::Interval{0, 10}));
  EXPECT_EQ(gaps[1], (IntervalSet::Interval{20, 30}));
  EXPECT_EQ(gaps[2], (IntervalSet::Interval{40, 50}));
}

TEST(IntervalSet, GapsFullyCovered) {
  IntervalSet s;
  s.insert(0, 100);
  EXPECT_TRUE(s.gaps(10, 90).empty());
}

TEST(IntervalSet, GapsFullyUncovered) {
  IntervalSet s;
  auto gaps = s.gaps(5, 15);
  ASSERT_EQ(gaps.size(), 1u);
  EXPECT_EQ(gaps[0].first, 5u);
  EXPECT_EQ(gaps[0].second, 15u);
}

TEST(IntervalSet, ContainsEmptyRangeTrivially) {
  IntervalSet s;
  EXPECT_TRUE(s.contains(7, 7));
}

TEST(IntervalSet, ClearResets) {
  IntervalSet s;
  s.insert(0, 10);
  s.clear();
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.totalBytes(), 0u);
}

TEST(IntervalSet, StressRandomAgainstBitmap) {
  IntervalSet s;
  std::vector<bool> ref(1000, false);
  std::uint64_t state = 12345;
  auto next = [&state] { return splitmix64(state); };
  for (int i = 0; i < 500; ++i) {
    std::uint64_t a = next() % 1000;
    std::uint64_t b = next() % 1000;
    if (a > b) std::swap(a, b);
    if (next() % 3 == 0) {
      s.erase(a, b);
      for (std::uint64_t k = a; k < b; ++k) ref[k] = false;
    } else {
      s.insert(a, b);
      for (std::uint64_t k = a; k < b; ++k) ref[k] = true;
    }
  }
  std::uint64_t expected = 0;
  for (bool v : ref) expected += v;
  EXPECT_EQ(s.totalBytes(), expected);
  for (std::uint64_t k = 0; k < 1000; k += 7) {
    EXPECT_EQ(s.coveredBytes(k, k + 1), ref[k] ? 1u : 0u) << "at " << k;
  }
}

/// Maximal runs of set bytes in a bitmap: the reference IntervalSet.
std::vector<IntervalSet::Interval> runsOf(const std::vector<bool>& bits,
                                          std::uint64_t begin,
                                          std::uint64_t end, bool value) {
  std::vector<IntervalSet::Interval> out;
  for (std::uint64_t k = begin; k < end;) {
    if (bits[k] != value) {
      ++k;
      continue;
    }
    const std::uint64_t start = k;
    while (k < end && bits[k] == value) ++k;
    out.emplace_back(start, k);
  }
  return out;
}

TEST(IntervalSet, MixedEditsMatchByteBitmap) {
  // Short ranges over a small universe: many intervals, so inserts grow,
  // re-key and bridge nodes, and erases trim fronts and tails, split and
  // remove whole ones.  Every observer is checked after every edit.
  constexpr std::uint64_t kSpan = 160;
  IntervalSet s;
  std::vector<bool> ref(kSpan, false);
  Rng rng(77);
  int splits = 0, frontTrims = 0, bridges = 0, extendsLeft = 0;
  for (int i = 0; i < 4000; ++i) {
    const std::uint64_t a = rng.below(kSpan - 1);
    const std::uint64_t b =
        std::min<std::uint64_t>(kSpan, a + rng.below(24));  // may be empty
    const auto before = runsOf(ref, 0, kSpan, true);
    const bool erase = rng.below(5) < 2;
    for (const auto& [lo, hi] : before) {
      if (erase && lo < a && b < hi) ++splits;
      if (erase && a <= lo && lo < b && b < hi) ++frontTrims;
      if (!erase && a < lo && lo <= b && b < hi) ++extendsLeft;
    }
    if (!erase) {
      int touched = 0;
      for (const auto& [lo, hi] : before) touched += lo <= b && a <= hi;
      bridges += a < b && touched >= 2;
    }
    if (erase) {
      s.erase(a, b);
    } else {
      s.insert(a, b);
    }
    for (std::uint64_t k = a; k < b; ++k) ref[k] = !erase;

    const auto want = runsOf(ref, 0, kSpan, true);
    ASSERT_EQ(s.intervals(), want) << "after edit " << i;
    std::uint64_t bytes = 0;
    for (const auto& [lo, hi] : want) bytes += hi - lo;
    ASSERT_EQ(s.totalBytes(), bytes) << "after edit " << i;
    ASSERT_EQ(s.intervalCount(), want.size());

    const std::uint64_t g0 = rng.below(kSpan);
    const std::uint64_t g1 = g0 + rng.below(kSpan - g0 + 1);
    ASSERT_EQ(s.gaps(g0, g1), runsOf(ref, g0, g1, false))
        << "gaps [" << g0 << ", " << g1 << ") after edit " << i;

    const std::uint64_t at = rng.below(kSpan + 8);
    std::optional<IntervalSet::Interval> first;
    for (const auto& iv : want) {
      if (iv.first >= at) {
        first = iv;
        break;
      }
    }
    if (!first && !want.empty()) first = want.front();  // wraps around
    ASSERT_EQ(s.firstIntervalAtOrAfter(at), first)
        << "at " << at << " after edit " << i;
  }
  // The mix really exercised the in-place paths.
  EXPECT_GT(splits, 50);
  EXPECT_GT(frontTrims, 50);
  EXPECT_GT(bridges, 50);
  EXPECT_GT(extendsLeft, 50);
}

}  // namespace
}  // namespace iop::util
