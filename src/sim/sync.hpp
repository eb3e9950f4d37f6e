// Synchronization primitives for simulation processes.
//
// All primitives resume waiters *through the event queue* (never inline), so
// wake-up order is deterministic and a primitive can be triggered from any
// context without re-entrancy surprises.  The one exception is the whenAll
// join: its last child to finish resumes the joining coroutine directly
// from its final-suspend, but only when a wake event would have been
// dispatched next anyway (nothing else queued for that instant).
#pragma once

#include <coroutine>
#include <cstdint>
#include <deque>
#include <exception>
#include <vector>

#include "sim/engine.hpp"
#include "sim/task.hpp"

namespace iop::sim {

/// Counts down from an initial value; waiters resume when it hits zero.
class Latch {
 public:
  Latch(Engine& engine, std::size_t count)
      : engine_(engine), count_(count) {}

  void countDown();
  std::size_t pending() const noexcept { return count_; }

  auto wait() {
    struct Awaiter {
      Latch& latch;
      bool await_ready() const noexcept { return latch.count_ == 0; }
      void await_suspend(std::coroutine_handle<> h) {
        latch.waiters_.push_back(h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

 private:
  Engine& engine_;
  std::size_t count_;
  std::vector<std::coroutine_handle<>> waiters_;
};

/// Manual-reset event: wait() suspends until set() is called; once set,
/// waits complete immediately until reset().
class Event {
 public:
  explicit Event(Engine& engine) : engine_(engine) {}

  void set();
  void reset() noexcept { set_ = false; }
  bool isSet() const noexcept { return set_; }

  auto wait() {
    struct Awaiter {
      Event& event;
      bool await_ready() const noexcept { return event.set_; }
      void await_suspend(std::coroutine_handle<> h) {
        event.waiters_.push_back(h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

 private:
  Engine& engine_;
  bool set_ = false;
  std::vector<std::coroutine_handle<>> waiters_;
};

/// FCFS resource with integer capacity — the queueing-server building block
/// of the storage model (a disk arm, a NIC, a server CPU).  Tracks a
/// time-weighted busy integral for utilization reporting (iostat %util).
///
/// Token handoff on release goes directly to the head of the wait queue, so
/// arrival order is strictly respected even when acquire/release interleave
/// at the same simulated instant.
class Resource {
 public:
  Resource(Engine& engine, int capacity = 1)
      : engine_(engine), capacity_(capacity) {}

  auto acquire() {
    struct Awaiter {
      Resource& res;
      bool queued = false;
      bool await_ready() const noexcept {
        return res.inUse_ < res.capacity_ && res.queue_.empty();
      }
      void await_suspend(std::coroutine_handle<> h) {
        queued = true;
        res.queue_.push_back(h);
      }
      void await_resume() const {
        // For the queued path the token was transferred by release()
        // without decrementing inUse_, so only the fast path takes one.
        if (!queued) res.takeToken();
      }
    };
    return Awaiter{*this};
  }

  void release();

  /// acquire -> hold for `serviceTime` -> release.
  Task<void> use(Time serviceTime);

  int inUse() const noexcept { return inUse_; }
  int capacity() const noexcept { return capacity_; }
  std::size_t queueLength() const noexcept { return queue_.size(); }

  /// Integral over time of (inUse / capacity); divide by elapsed time for
  /// mean utilization.  Includes time accrued up to `asOf`.
  double busyIntegral(Time asOf) const;

 private:
  void takeToken();
  void accrue();

  Engine& engine_;
  int capacity_;
  int inUse_ = 0;
  std::deque<std::coroutine_handle<>> queue_;
  double busyIntegral_ = 0;
  Time lastChange_ = 0;
};

/// Condition variable: wait() always suspends; notifyAll() resumes every
/// waiter (through the event queue).  Callers re-check their predicate in a
/// loop, exactly like std::condition_variable.
class CondVar {
 public:
  explicit CondVar(Engine& engine) : engine_(engine) {}

  auto wait() {
    struct Awaiter {
      CondVar& cv;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        cv.waiters_.push_back(h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

  void notifyAll();

  std::size_t waiterCount() const noexcept { return waiters_.size(); }

 private:
  Engine& engine_;
  std::vector<std::coroutine_handle<>> waiters_;
};

/// Unbounded FIFO channel of T: push never blocks, pop suspends while empty.
template <typename T>
class Channel {
 public:
  explicit Channel(Engine& engine) : engine_(engine) {}

  void push(T value) {
    items_.push_back(std::move(value));
    if (!waiters_.empty()) {
      auto h = waiters_.front();
      waiters_.pop_front();
      engine_.scheduleNow(h);
    }
  }

  /// Awaitable pop.  Resumption order among waiters is FIFO.
  auto pop() {
    struct Awaiter {
      Channel& chan;
      bool await_ready() const noexcept {
        return !chan.items_.empty() && chan.waiters_.empty();
      }
      void await_suspend(std::coroutine_handle<> h) {
        chan.waiters_.push_back(h);
      }
      T await_resume() {
        T value = std::move(chan.items_.front());
        chan.items_.pop_front();
        return value;
      }
    };
    return Awaiter{*this};
  }

  std::size_t size() const noexcept { return items_.size(); }
  bool empty() const noexcept { return items_.empty(); }

 private:
  Engine& engine_;
  std::deque<T> items_;
  std::deque<std::coroutine_handle<>> waiters_;
};

/// Run a set of tasks concurrently and resume when all complete.  The first
/// child exception (in completion order) is rethrown after all children
/// finish.
///
/// The join owns its children; they are not detached processes, so
/// Engine::liveProcesses() does not count them.  One event at now() starts
/// every child in order, each running until its first suspension (the
/// same dispatch order as one spawn per child, whose k events had
/// consecutive seq).  The last child to finish resumes the caller from its
/// final-suspend; it schedules a wake event instead only when another
/// event is already queued for now(), which would have run first.  Per
/// fan-out of k children that is 1 or 2 events instead of k + 1, and
/// k + 1 frames instead of 2k + 1, with the same dispatch order.
Task<void> whenAll(Engine& engine, std::vector<Task<void>> tasks);

}  // namespace iop::sim
