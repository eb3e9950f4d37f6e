#include "util/intervals.hpp"

#include <algorithm>

namespace iop::util {

// insert() and erase() edit the nodes they touch in place: an end grows or
// shrinks through the mapped value, a begin moves by re-keying the node
// (map::extract keeps its allocation).  A node is allocated only for a
// disjoint insert or a true split, and freed only when coalesced away or
// erased whole.  The page cache calls both on every request.

void IntervalSet::insert(std::uint64_t begin, std::uint64_t end) {
  if (begin >= end) return;
  // Find the first interval that could overlap or touch [begin, end).
  auto it = map_.upper_bound(begin);
  if (it != map_.begin()) {
    auto prev = std::prev(it);
    if (prev->second >= begin) it = prev;  // touches or overlaps from left
  }
  if (it == map_.end() || it->first > end) {
    map_.emplace_hint(it, begin, end);
    total_ += end - begin;
    return;
  }
  // `it` survives as the merged interval; later ones it reaches are
  // absorbed into it.
  std::uint64_t newEnd = std::max(end, it->second);
  total_ -= it->second - it->first;
  auto next = std::next(it);
  while (next != map_.end() && next->first <= newEnd) {
    newEnd = std::max(newEnd, next->second);
    total_ -= next->second - next->first;
    next = map_.erase(next);
  }
  it->second = newEnd;
  if (begin < it->first) {
    // The new begin still sorts between the previous interval and `next`.
    auto node = map_.extract(it);
    node.key() = begin;
    it = map_.insert(next, std::move(node));
  }
  total_ += it->second - it->first;
}

void IntervalSet::erase(std::uint64_t begin, std::uint64_t end) {
  if (begin >= end) return;
  auto it = map_.upper_bound(begin);
  if (it != map_.begin()) {
    auto prev = std::prev(it);
    if (prev->second > begin) it = prev;
  }
  if (it != map_.end() && it->first < begin) {
    // The head [it->first, begin) survives in place.
    const std::uint64_t ivEnd = it->second;
    it->second = begin;
    if (ivEnd > end) {
      // A true split: the tail is the only new node.
      map_.emplace_hint(std::next(it), end, ivEnd);
      total_ -= end - begin;
      return;
    }
    total_ -= ivEnd - begin;
    ++it;
  }
  while (it != map_.end() && it->first < end) {
    if (it->second > end) {
      // Trim the front: re-key the node to start at `end`.
      total_ -= end - it->first;
      auto next = std::next(it);
      auto node = map_.extract(it);
      node.key() = end;
      map_.insert(next, std::move(node));
      return;
    }
    total_ -= it->second - it->first;
    it = map_.erase(it);
  }
}

std::uint64_t IntervalSet::coveredBytes(std::uint64_t begin,
                                        std::uint64_t end) const {
  if (begin >= end) return 0;
  std::uint64_t covered = 0;
  auto it = map_.upper_bound(begin);
  if (it != map_.begin()) {
    auto prev = std::prev(it);
    if (prev->second > begin) it = prev;
  }
  for (; it != map_.end() && it->first < end; ++it) {
    const std::uint64_t lo = std::max(begin, it->first);
    const std::uint64_t hi = std::min(end, it->second);
    if (hi > lo) covered += hi - lo;
  }
  return covered;
}

bool IntervalSet::contains(std::uint64_t begin, std::uint64_t end) const {
  if (begin >= end) return true;
  return coveredBytes(begin, end) == end - begin;
}

std::vector<IntervalSet::Interval> IntervalSet::gaps(std::uint64_t begin,
                                                     std::uint64_t end) const {
  std::vector<Interval> out;
  if (begin >= end) return out;
  std::uint64_t cursor = begin;
  auto it = map_.upper_bound(begin);
  if (it != map_.begin()) {
    auto prev = std::prev(it);
    if (prev->second > begin) it = prev;
  }
  for (; it != map_.end() && it->first < end; ++it) {
    if (it->first > cursor) out.emplace_back(cursor, it->first);
    cursor = std::max(cursor, it->second);
    if (cursor >= end) break;
  }
  if (cursor < end) out.emplace_back(cursor, end);
  return out;
}

std::optional<IntervalSet::Interval> IntervalSet::firstIntervalAtOrAfter(
    std::uint64_t offset) const {
  if (map_.empty()) return std::nullopt;
  auto it = map_.lower_bound(offset);
  if (it == map_.end()) it = map_.begin();  // wrap to the lowest offset
  return Interval{it->first, it->second};
}

std::vector<IntervalSet::Interval> IntervalSet::intervals() const {
  std::vector<Interval> out;
  out.reserve(map_.size());
  for (const auto& [b, e] : map_) out.emplace_back(b, e);
  return out;
}

}  // namespace iop::util
