#include "sim/sync.hpp"

#include <stdexcept>

namespace iop::sim {

void Latch::countDown() {
  if (count_ == 0) {
    throw std::logic_error("Latch::countDown below zero");
  }
  if (--count_ == 0) {
    for (auto h : waiters_) engine_.scheduleNow(h);
    waiters_.clear();
  }
}

void Event::set() {
  set_ = true;
  for (auto h : waiters_) engine_.scheduleNow(h);
  waiters_.clear();
}

void Resource::release() {
  accrue();
  if (!queue_.empty()) {
    // Hand the token straight to the next waiter; inUse_ is unchanged.
    auto h = queue_.front();
    queue_.pop_front();
    engine_.scheduleNow(h);
  } else {
    if (inUse_ == 0) throw std::logic_error("Resource::release underflow");
    --inUse_;
  }
}

Task<void> Resource::use(Time serviceTime) {
  co_await acquire();
  co_await engine_.delay(serviceTime);
  release();
}

void Resource::takeToken() {
  accrue();
  ++inUse_;
}

void Resource::accrue() {
  const Time now = engine_.now();
  busyIntegral_ +=
      (now - lastChange_) * static_cast<double>(inUse_) / capacity_;
  lastChange_ = now;
}

double Resource::busyIntegral(Time asOf) const {
  return busyIntegral_ +
         (asOf - lastChange_) * static_cast<double>(inUse_) / capacity_;
}

void CondVar::notifyAll() {
  for (auto h : waiters_) engine_.scheduleNow(h);
  waiters_.clear();
}

namespace detail {

std::coroutine_handle<> completeJoin(JoinState& join) {
  // A wake event scheduled here (at now, with the next seq) would be
  // dispatched next unless an event is already queued for now.  Resuming
  // the parent directly keeps that order with one event fewer; otherwise
  // the wake event is needed.
  if (join.engine->hasEventNow()) {
    join.engine->scheduleNow(join.parent);
    return std::noop_coroutine();
  }
  return join.parent;
}

}  // namespace detail

Task<void> whenAll(Engine& engine, std::vector<Task<void>> tasks) {
  if (tasks.empty()) co_return;
  // One event starts every child.  That is the order one event per child
  // would give: k events at now with consecutive seq run back to back.
  co_await engine.yield();
  // One extra count for the start loop itself, so a child that completes
  // without suspending cannot resume this frame while it is still running.
  detail::JoinState join{&engine, tasks.size() + 1};
  for (auto& task : tasks) {
    if (task.valid()) {
      task.startJoined(join);
    } else {
      --join.pending;
    }
  }
  struct Wait {
    detail::JoinState& join;
    bool await_ready() const noexcept { return false; }
    std::coroutine_handle<> await_suspend(std::coroutine_handle<> h) {
      join.parent = h;
      if (--join.pending != 0) return std::noop_coroutine();
      return detail::completeJoin(join);
    }
    void await_resume() const noexcept {}
  };
  co_await Wait{join};
  tasks.clear();  // every child is parked at final-suspend; free the frames
  if (join.firstError) std::rethrow_exception(join.firstError);
}

}  // namespace iop::sim
