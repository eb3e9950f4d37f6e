// Coroutine task type for the discrete-event simulation engine.
//
// A sim::Task<T> is a lazily-started coroutine.  Simulation "processes"
// (MPI ranks, cache flushers, device monitors) are Task<void> coroutines
// spawned detached on an Engine; ordinary async operations (a disk access, a
// network transfer) are Tasks awaited by their caller with symmetric
// transfer, so arbitrarily deep call chains cost no stack and no events.
//
// Ownership rules:
//  * A Task owns its coroutine frame and destroys it in ~Task.
//  * `co_await std::move(task)` starts the child and resumes the awaiter
//    when the child finishes; exceptions propagate to the awaiter.
//  * Engine::spawn / spawnAt take ownership; a detached frame destroys
//    itself at final-suspend and reports uncaught exceptions to the Engine.
//  * A sim::whenAll join keeps ownership of its children; each child's
//    final-suspend counts the join down, and the last one resumes the
//    join (see sync.hpp).
#pragma once

#include <coroutine>
#include <cstddef>
#include <exception>
#include <optional>
#include <utility>

#include "sim/framepool.hpp"

namespace iop::sim {

class Engine;

namespace detail {
/// Report an exception escaping from a detached task to its engine.
void reportDetachedException(Engine& engine, std::exception_ptr exc);
/// Notify the engine that a detached task finished (for deadlock checks).
void noteDetachedTaskFinished(Engine& engine);

/// Completion count of one sim::whenAll join.  Children started with
/// Task::startJoined count it down at their final-suspend; the one that
/// takes it to zero hands the join to completeJoin().
struct JoinState {
  Engine* engine = nullptr;
  std::size_t pending = 0;
  std::coroutine_handle<> parent{};
  std::exception_ptr firstError{};  ///< first child failure, completion order
};

/// The count reached zero: resume `join.parent` now (returned, for
/// symmetric transfer) or through a wake event (scheduled; returns
/// noop_coroutine) — see whenAll in sync.hpp for which.
std::coroutine_handle<> completeJoin(JoinState& join);
}  // namespace detail

struct PromiseBase {
  Engine* engine = nullptr;
  std::coroutine_handle<> continuation{};
  std::exception_ptr exception{};
  detail::JoinState* join = nullptr;  ///< set for whenAll children
  bool detached = false;

  /// Coroutine frames come from the thread-local arena, not the heap: a
  /// simulation spawns the same coroutine shapes over and over, and the
  /// free lists recycle those frames with no allocator round trips.
  static void* operator new(std::size_t n) {
    return FrameArena::local().allocate(n);
  }
  static void operator delete(void* p, std::size_t n) noexcept {
    FrameArena::local().deallocate(p, n);
  }

  std::suspend_always initial_suspend() noexcept { return {}; }
  void unhandled_exception() noexcept { exception = std::current_exception(); }
};

template <typename T>
class [[nodiscard]] Task;

namespace detail {

template <typename Promise>
struct FinalAwaiter {
  bool await_ready() const noexcept { return false; }

  std::coroutine_handle<> await_suspend(
      std::coroutine_handle<Promise> h) noexcept {
    PromiseBase& p = h.promise();
    if (p.detached) {
      Engine* engine = p.engine;
      std::exception_ptr exc = p.exception;
      h.destroy();
      if (engine != nullptr) {
        noteDetachedTaskFinished(*engine);
        if (exc) reportDetachedException(*engine, exc);
      }
      return std::noop_coroutine();
    }
    if (p.join != nullptr) {
      JoinState& join = *p.join;
      if (p.exception && !join.firstError) join.firstError = p.exception;
      if (--join.pending == 0) return completeJoin(join);
      return std::noop_coroutine();
    }
    if (p.continuation) return p.continuation;
    return std::noop_coroutine();
  }

  void await_resume() const noexcept {}
};

}  // namespace detail

template <typename T>
struct TaskPromise : PromiseBase {
  std::optional<T> value;  ///< optional: T need not be default-constructible

  Task<T> get_return_object() noexcept;
  detail::FinalAwaiter<TaskPromise<T>> final_suspend() noexcept { return {}; }
  void return_value(T v) { value.emplace(std::move(v)); }
};

template <>
struct TaskPromise<void> : PromiseBase {
  Task<void> get_return_object() noexcept;
  detail::FinalAwaiter<TaskPromise<void>> final_suspend() noexcept {
    return {};
  }
  void return_void() noexcept {}
};

template <typename T>
class [[nodiscard]] Task {
 public:
  using promise_type = TaskPromise<T>;
  using Handle = std::coroutine_handle<promise_type>;

  Task() noexcept = default;
  explicit Task(Handle h) noexcept : handle_(h) {}
  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, {})) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = std::exchange(other.handle_, {});
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  bool valid() const noexcept { return static_cast<bool>(handle_); }

  /// Release ownership of the frame (used by Engine::spawn for detached
  /// execution).  The caller becomes responsible for the frame.
  Handle release() noexcept { return std::exchange(handle_, {}); }

  /// Start the frame as a child of `join`: it runs until its first
  /// suspension, and its final-suspend counts the join down instead of
  /// resuming an awaiter.  The Task keeps ownership of the frame.
  void startJoined(detail::JoinState& join) noexcept {
    handle_.promise().join = &join;
    handle_.resume();
  }

  /// Awaiter: starting the child with symmetric transfer and resuming the
  /// parent from the child's final-suspend.
  struct Awaiter {
    Handle handle;

    bool await_ready() const noexcept { return !handle || handle.done(); }

    std::coroutine_handle<> await_suspend(
        std::coroutine_handle<> parent) noexcept {
      handle.promise().continuation = parent;
      return handle;
    }

    T await_resume() {
      if (handle.promise().exception) {
        std::rethrow_exception(handle.promise().exception);
      }
      if constexpr (!std::is_void_v<T>) {
        return std::move(*handle.promise().value);
      }
    }
  };

  Awaiter operator co_await() const& noexcept { return Awaiter{handle_}; }
  Awaiter operator co_await() && noexcept { return Awaiter{handle_}; }

 private:
  void destroy() noexcept {
    if (handle_) {
      handle_.destroy();
      handle_ = {};
    }
  }

  Handle handle_{};
};

template <typename T>
Task<T> TaskPromise<T>::get_return_object() noexcept {
  return Task<T>{
      std::coroutine_handle<TaskPromise<T>>::from_promise(*this)};
}

inline Task<void> TaskPromise<void>::get_return_object() noexcept {
  return Task<void>{
      std::coroutine_handle<TaskPromise<void>>::from_promise(*this)};
}

}  // namespace iop::sim
