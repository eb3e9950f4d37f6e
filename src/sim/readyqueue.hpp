// Ready-event queues for the discrete-event engine.
//
// CalendarQueue is a deterministic two-level calendar/ladder queue: a FIFO
// lane for events scheduled at the current time, a window of near-future
// buckets poured one at a time into a sorted run, and a far-future overflow
// heap.  It dispatches in exactly the same (when, seq) total order as a
// binary heap — HeapQueue below is that reference implementation, kept for
// the equivalence test in tests/sim_test.cpp — but the common operations
// are O(1) amortized instead of O(log n):
//
//  * push at the current time      -> append to the FIFO lane
//  * push into the active window   -> append to an unsorted bucket
//  * pop                           -> bump an index into the sorted run
//
// Only two situations sort: pouring a bucket into the run (each event is
// sorted once per window, and buckets filled in schedule order are usually
// already sorted) and the rare push that lands at-or-before the bucket
// cursor, which does a binary-search insert into the run.
//
// Determinism notes (why floating-point bucketing cannot reorder events):
//  * The bucket slot (when - windowStart) * invWidth, clamped to the last
//    bucket, is a monotone non-decreasing function of `when` for any fixed
//    invWidth > 0, so an event in a later bucket is strictly later than
//    every event in an earlier bucket — regardless of rounding.
//  * openWindow() extends the window end beyond the largest sampled
//    timestamp and keeps draining the overflow heap below that end, so
//    every event left in the overflow heap is >= every bucketed event.
//  * Ties inside a bucket (and everywhere else) are broken by the
//    engine-issued sequence number, never by container order.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <coroutine>
#include <limits>
#include <vector>

namespace iop::sim {

using Time = double;

namespace detail {

struct QueuedEvent {
  Time when;
  std::uint64_t seq;
  std::coroutine_handle<> handle;
  /// True only for a detached frame's very first scheduling: if the engine
  /// dies before dispatch, the frame must be destroyed by the owner.
  bool ownsHandle = false;
};

inline bool laterThan(const QueuedEvent& a, const QueuedEvent& b) noexcept {
  if (a.when != b.when) return a.when > b.when;
  return a.seq > b.seq;
}

inline bool earlierThan(const QueuedEvent& a,
                        const QueuedEvent& b) noexcept {
  if (a.when != b.when) return a.when < b.when;
  return a.seq < b.seq;
}

/// Reference scheduler: plain binary heap with the same interface as
/// CalendarQueue.  Used by tests to prove order equivalence.
class HeapQueue {
 public:
  void push(const QueuedEvent& ev, Time /*now*/) {
    heap_.push_back(ev);
    std::push_heap(heap_.begin(), heap_.end(), laterThan);
  }

  const QueuedEvent* peek(Time /*now*/) {
    return heap_.empty() ? nullptr : &heap_.front();
  }

  QueuedEvent pop(Time /*now*/) {
    std::pop_heap(heap_.begin(), heap_.end(), laterThan);
    QueuedEvent ev = heap_.back();
    heap_.pop_back();
    return ev;
  }

  std::size_t size() const noexcept { return heap_.size(); }
  bool empty() const noexcept { return heap_.empty(); }

  template <typename F>
  void drainEach(F&& f) {
    for (QueuedEvent& ev : heap_) f(ev);
    heap_.clear();
  }

 private:
  std::vector<QueuedEvent> heap_;
};

class CalendarQueue {
 public:
  /// `now` is the engine clock; events with when <= now go to the FIFO
  /// lane (the engine clamps past times, so these are when == now).
  void push(const QueuedEvent& ev, Time now) {
    front_ = Front::Unknown;
    if (ev.when <= now) {
      ++count_;
      nowq_.push_back(ev);
      return;
    }
    if (count_ == 0) {
      // Sole event in the queue (every container is empty): straight into
      // the run — the common shape for ping-pong chains of one process.
      ++count_;
      near_.push_back(ev);
      return;
    }
    ++count_;
    // Everything in buckets or the overflow heap must stay strictly later
    // than the run's tail (peek never compares the run against them), so a
    // push that would undercut or tie the tail joins the intruder lane
    // instead — a second sorted run merged with the main one at peek.  A
    // tie matters when the tail went straight into the run above: left in
    // a bucket, an event at the tail's time would still be there when the
    // clock reaches it, and peek would hand out FIFO-lane events pushed at
    // that time later (larger seq) ahead of it.  A dedicated lane keeps
    // the undercut path O(1) amortized even when a bad window pours a
    // large run and a stream of earlier events then arrives in time order
    // (mass up-front spawns): they append to the intruder lane instead of
    // memmove-inserting into the middle of the big run.
    const QueuedEvent* tail = nearHead_ != near_.size() ? &near_.back()
                              : intrHead_ != intr_.size() ? &intr_.back()
                                                          : nullptr;
    if (tail != nullptr && ev.when <= tail->when) {
      insertIntruder(ev);
      return;
    }
    if (windowActive_ && ev.when < windowEnd_) {
      const std::size_t idx = slotFor(ev.when);
      if (idx > cursor_ || cursor_ == kNoCursor) {
        buckets_[idx].push_back(ev);
      } else {
        insertNear(ev);
      }
      return;
    }
    overflow_.push_back(ev);
    std::push_heap(overflow_.begin(), overflow_.end(), laterThan);
  }

  /// Earliest event in (when, seq) order, or nullptr when empty.  May pour
  /// the next bucket (amortized O(1) per event).
  const QueuedEvent* peek(Time now) {
    switch (front_) {
      case Front::Near:
        return &near_[nearHead_];
      case Front::Intr:
        return &intr_[intrHead_];
      case Front::Now:
        return &nowq_[nowHead_];
      case Front::Unknown:
        break;
    }
    for (;;) {
      const QueuedEvent* best = nullptr;
      Front lane = Front::Unknown;
      if (nearHead_ != near_.size()) {
        best = &near_[nearHead_];
        lane = Front::Near;
      }
      if (intrHead_ != intr_.size()) {
        const QueuedEvent& head = intr_[intrHead_];
        if (best == nullptr || earlierThan(head, *best)) {
          best = &head;
          lane = Front::Intr;
        }
      }
      // A sorted-run event at or before `now` was scheduled earlier
      // (smaller seq) than anything in the FIFO lane, which only holds
      // events pushed after the clock reached `now`.
      if (best != nullptr && (best->when <= now || nowHead_ == nowq_.size())) {
        front_ = lane;
        return best;
      }
      if (nowHead_ != nowq_.size()) {
        front_ = Front::Now;
        return &nowq_[nowHead_];
      }
      if (!refill()) return nullptr;
    }
  }

  /// Remove and return the event peek() points at.  Call with the same
  /// `now` as the preceding peek and no pushes in between.
  QueuedEvent pop(Time now) {
    if (front_ == Front::Unknown) peek(now);
    --count_;
    const Front lane = front_;
    front_ = Front::Unknown;
    if (lane == Front::Near) {
      const QueuedEvent ev = near_[nearHead_++];
      if (nearHead_ == near_.size()) {
        near_.clear();
        nearHead_ = 0;
      }
      return ev;
    }
    if (lane == Front::Intr) {
      const QueuedEvent ev = intr_[intrHead_++];
      if (intrHead_ == intr_.size()) {
        intr_.clear();
        intrHead_ = 0;
      }
      return ev;
    }
    const QueuedEvent ev = nowq_[nowHead_++];
    if (nowHead_ == nowq_.size()) {
      nowq_.clear();
      nowHead_ = 0;
    }
    return ev;
  }

  std::size_t size() const noexcept { return count_; }
  bool empty() const noexcept { return count_ == 0; }

  /// Visit every queued event in unspecified order and leave the queue
  /// empty (engine teardown).
  template <typename F>
  void drainEach(F&& f) {
    for (std::size_t i = nowHead_; i < nowq_.size(); ++i) f(nowq_[i]);
    nowq_.clear();
    nowHead_ = 0;
    for (std::size_t i = nearHead_; i < near_.size(); ++i) f(near_[i]);
    near_.clear();
    nearHead_ = 0;
    for (std::size_t i = intrHead_; i < intr_.size(); ++i) f(intr_[i]);
    intr_.clear();
    intrHead_ = 0;
    for (auto& bucket : buckets_) {
      for (QueuedEvent& ev : bucket) f(ev);
      bucket.clear();
    }
    for (QueuedEvent& ev : overflow_) f(ev);
    overflow_.clear();
    count_ = 0;
    windowActive_ = false;
    front_ = Front::Unknown;
  }

 private:
  static constexpr std::size_t kNumBuckets = 256;
  static constexpr std::size_t kNoCursor =
      std::numeric_limits<std::size_t>::max();

  enum class Front : unsigned char { Unknown, Near, Intr, Now };

  std::size_t slotFor(Time when) const noexcept {
    const double offset = (when - windowStart_) * invWidth_;
    // Clamp in the double domain: a huge product must not hit the
    // undefined double->size_t conversion.
    if (!(offset >= 0)) return 0;
    if (offset >= static_cast<double>(kNumBuckets)) return kNumBuckets - 1;
    return static_cast<std::size_t>(offset);
  }

  /// Binary-search insert into the ascending run (rare: only for pushes
  /// landing at or before the bucket cursor).
  void insertNear(const QueuedEvent& ev) {
    const auto it = std::upper_bound(near_.begin() + nearHead_, near_.end(),
                                     ev, earlierThan);
    near_.insert(it, ev);
  }

  /// Insert into the ascending intruder lane.  Undercutting pushes from a
  /// dispatch loop arrive with non-decreasing `when` and strictly rising
  /// seq, so the common case is a plain append.
  void insertIntruder(const QueuedEvent& ev) {
    if (intrHead_ == intr_.size() || !earlierThan(ev, intr_.back())) {
      intr_.push_back(ev);
      return;
    }
    const auto it = std::upper_bound(intr_.begin() + intrHead_, intr_.end(),
                                     ev, earlierThan);
    intr_.insert(it, ev);
  }

  QueuedEvent popOverflow() {
    std::pop_heap(overflow_.begin(), overflow_.end(), laterThan);
    QueuedEvent ev = overflow_.back();
    overflow_.pop_back();
    return ev;
  }

  /// Called with the run and FIFO lane empty: advance the cursor to the
  /// next non-empty bucket and pour it, opening a new window from the
  /// overflow heap when the current one is exhausted.
  bool refill() {
    for (;;) {
      if (windowActive_) {
        while (cursor_ + 1 < kNumBuckets) {  // kNoCursor + 1 wraps to 0
          ++cursor_;
          if (!buckets_[cursor_].empty()) {
            near_.swap(buckets_[cursor_]);
            // Buckets fill in schedule order, which is already sorted
            // whenever timestamps within the bucket don't interleave —
            // the common case, worth the O(n) check.
            if (!std::is_sorted(near_.begin(), near_.end(), earlierThan)) {
              std::sort(near_.begin(), near_.end(), earlierThan);
            }
            return true;
          }
        }
        windowActive_ = false;
      }
      if (overflow_.empty()) return false;
      openWindow();
    }
  }

  void openWindow() {
    tmp_.clear();
    const std::size_t sample = std::min(overflow_.size(), kNumBuckets);
    for (std::size_t i = 0; i < sample; ++i) tmp_.push_back(popOverflow());
    // Heap pops arrive in ascending order.
    windowStart_ = tmp_.front().when;
    const Time range = tmp_.back().when - windowStart_;
    // Per-window gap resample: the drained sample IS the population the
    // window spreads across its buckets, so its own mean gap sizes the
    // buckets.  A global push-time estimate tracks whichever chain pushes
    // most often, and under mixed-density workloads (interleaved fast and
    // slow timescales) that mis-sizes every window for the other chains —
    // too-narrow buckets funnel the slow chain's events into the clamped
    // last bucket, too-wide buckets pour the fast chain unsorted.  Blend
    // across windows so one sparse sample doesn't whipsaw the width.
    // Bucket width never affects dispatch order (see the determinism
    // notes above), only how much work each pour has to sort.
    if (sample > 1 && range > 0) {
      const Time localGap = range / static_cast<double>(sample - 1);
      windowGap_ =
          windowGap_ > 0 ? windowGap_ * 0.5 + localGap * 0.5 : localGap;
    }
    Time w = windowGap_ > 0
                 ? windowGap_
                 : (range > 0 ? range / static_cast<double>(kNumBuckets)
                              : 1.0);
    if (!(w > 0) || !std::isfinite(w)) w = 1.0;
    invWidth_ = 1.0 / w;
    if (!std::isfinite(invWidth_)) {
      w = 1.0;
      invWidth_ = 1.0;
    }
    // The window must cover the whole sample (clamping handles slots past
    // the last bucket), and every event still in the overflow heap must be
    // >= windowEnd_ so the heap can never undercut a bucketed event.
    windowEnd_ = std::max(
        windowStart_ + w * static_cast<double>(kNumBuckets),
        std::nextafter(tmp_.back().when,
                       std::numeric_limits<double>::infinity()));
    while (!overflow_.empty() && overflow_.front().when < windowEnd_) {
      tmp_.push_back(popOverflow());
    }
    for (const QueuedEvent& ev : tmp_) {
      buckets_[slotFor(ev.when)].push_back(ev);
    }
    tmp_.clear();
    cursor_ = kNoCursor;
    windowActive_ = true;
  }

  /// FIFO lane for events scheduled at the current time (seq order ==
  /// insertion order, so a plain index walk preserves the total order).
  std::vector<QueuedEvent> nowq_;
  std::size_t nowHead_ = 0;
  /// Contents of bucket `cursor_`, ascending by (when, seq) from
  /// nearHead_; the earliest event is near_[nearHead_].
  std::vector<QueuedEvent> near_;
  std::size_t nearHead_ = 0;
  /// Intruder lane: pushes that undercut the run's tail, kept ascending
  /// and merged with the run at peek.  Every intruder is earlier than the
  /// run's tail, so buckets and overflow still never undercut either run.
  std::vector<QueuedEvent> intr_;
  std::size_t intrHead_ = 0;
  std::vector<QueuedEvent> buckets_[kNumBuckets];
  std::size_t cursor_ = kNoCursor;
  Time windowStart_ = 0;
  Time windowEnd_ = 0;
  double invWidth_ = 1.0;
  bool windowActive_ = false;
  Front front_ = Front::Unknown;
  /// Far-future min-heap (front = earliest), drained only by openWindow().
  std::vector<QueuedEvent> overflow_;
  std::vector<QueuedEvent> tmp_;
  /// Cross-window EMA of the per-window mean gap (openWindow resamples it
  /// from each drained overflow sample); 0 until the first multi-event
  /// window.
  Time windowGap_ = 0;
  std::size_t count_ = 0;
};

}  // namespace detail
}  // namespace iop::sim
