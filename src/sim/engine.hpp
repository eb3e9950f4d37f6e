// Deterministic discrete-event simulation engine.
//
// The engine owns the simulated clock and a calendar queue of ready
// coroutines (see readyqueue.hpp).  Events with equal timestamps run in
// scheduling order (monotonic sequence numbers), so a run is a pure
// function of its inputs and the RNG seed — a property the whole
// repository relies on for reproducing the paper's tables.  The engine
// folds every dispatched (when, seq) pair into a running FNV-1a digest;
// tests compare digests across runs and schedulers to prove the order
// never drifts.
#pragma once

#include <cmath>
#include <coroutine>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "obs/hubcache.hpp"
#include "sim/readyqueue.hpp"
#include "sim/task.hpp"
#include "util/rng.hpp"

namespace iop::obs {
struct Hub;
class Gauge;
}  // namespace iop::obs

namespace iop::sim {

/// Simulated time, in seconds.
using Time = double;

/// Thrown by Engine::run when the event queue drains while detached
/// processes are still blocked (a lost wake-up / deadlock in model code).
class DeadlockError : public std::runtime_error {
 public:
  explicit DeadlockError(const std::string& what)
      : std::runtime_error(what) {}
};

class Engine {
 public:
  explicit Engine(std::uint64_t seed = 1);
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;
  /// Destroys still-queued never-started detached frames.
  ~Engine();

  /// Current simulated time in seconds.
  Time now() const noexcept { return now_; }

  /// Deterministic RNG owned by this engine.
  util::Rng& rng() noexcept { return rng_; }

  /// Launch a detached process at the current time.  The coroutine frame
  /// frees itself on completion; uncaught exceptions surface from run().
  void spawn(Task<void> task);

  /// Launch a detached process at an absolute future time.  Past times
  /// clamp to now(); non-finite times throw std::invalid_argument.
  void spawnAt(Time when, Task<void> task);

  /// Schedule a raw coroutine resumption (used by awaitables).  Past times
  /// clamp to now(); NaN/infinite times throw std::invalid_argument
  /// instead of silently corrupting the queue order.
  void schedule(Time when, std::coroutine_handle<> h) {
    scheduleImpl(when, h, false);
  }
  void scheduleNow(std::coroutine_handle<> h) { schedule(now_, h); }

  /// True when an event is already queued for now(): it would run before
  /// anything scheduleNow() adds.
  bool hasEventNow() {
    const detail::QueuedEvent* top = queue_.peek(now_);
    return top != nullptr && top->when <= now_;
  }

  /// Run until the event queue is empty.  Throws DeadlockError if detached
  /// processes remain blocked, and rethrows the first uncaught exception
  /// from any detached process.
  void run();

  /// Run until the queue is empty or simulated time would exceed `limit`.
  /// Events after `limit` stay queued; now() is clamped to `limit`.
  void runUntil(Time limit);

  /// Like run(), but without the deadlock check: blocked daemon processes
  /// (e.g. an idle cache flusher between benchmark passes) are tolerated.
  void drain();

  /// Awaitable: suspend the calling coroutine for `dt` simulated seconds.
  /// A non-positive dt still yields through the event queue (runs after
  /// already-scheduled same-time events).  Non-finite dt throws
  /// std::invalid_argument at the co_await point.
  auto delay(Time dt) {
    if (!std::isfinite(dt)) {
      throw std::invalid_argument("Engine::delay: non-finite duration");
    }
    struct Awaiter {
      Engine& engine;
      Time dt;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        engine.schedule(engine.now_ + dt, h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this, dt > 0 ? dt : 0};
  }

  /// Awaitable: reschedule at the current time, after pending same-time
  /// events (cooperative yield).
  auto yield() { return delay(0); }

  /// Number of events dispatched so far (for tests and micro-benchmarks).
  std::uint64_t eventsDispatched() const noexcept { return dispatched_; }

  /// FNV-1a fold of every dispatched (when, seq) pair, in dispatch order.
  /// Two runs with the same inputs must report the same digest; the
  /// determinism tests pin it across scheduler implementations.
  std::uint64_t orderDigest() const noexcept { return orderDigest_; }

  /// Number of detached processes that have not finished yet.
  int liveProcesses() const noexcept { return liveDetached_; }

  /// Attach (or detach, with nullptr) an observability hub.  Everything
  /// holding an Engine reference — disks, caches, NICs, the MPI layer —
  /// reaches its sinks through here, so one call observes the whole
  /// simulation.  Recording is passive: it must not consume rng() or
  /// reorder the ready queue, so attaching cannot change a run's outcome.
  ///
  /// Every call starts a new attach epoch.  Components that resolve track
  /// ids, label ids or instrument handles against the hub key them to
  /// obsEpoch() (obs::HubCache), so nothing resolved against one hub is
  /// used with the next.
  void setObs(obs::Hub* hub) noexcept {
    obs_ = hub;
    ++obsEpoch_;
  }
  obs::Hub* obs() const noexcept { return obs_; }
  std::uint64_t obsEpoch() const noexcept { return obsEpoch_; }

  /// Seconds of simulated time between engine-level counter samples
  /// (queue depth / dispatch rate) in the exported trace.
  void setObsSampleInterval(Time interval) noexcept {
    obsSampleInterval_ = interval > 0 ? interval : 0.1;
  }

 private:
  friend void detail::reportDetachedException(Engine&, std::exception_ptr);
  friend void detail::noteDetachedTaskFinished(Engine&);

  void scheduleImpl(Time when, std::coroutine_handle<> h, bool owns) {
    if (!std::isfinite(when)) {
      throw std::invalid_argument("Engine::schedule: non-finite time");
    }
    if (when < now_) when = now_;
    queue_.push(detail::QueuedEvent{when, seq_++, h, owns}, now_);
  }

  void dispatchUntil(Time limit, bool bounded);
  void throwIfFailed();
  /// Cold path: throttled samples; only entered when a hub is attached.
  void observeDispatch();

  /// What the engine records, resolved once per attached hub (same
  /// HubCache rule as every other seam).  The gauges and the track are
  /// created at the first sample.
  struct ObsHandles {
    obs::Gauge* dispatchedGauge = nullptr;
    obs::Gauge* liveGauge = nullptr;
    int track = -1;
    std::uint32_t readyName = 0;  ///< obs::NameId of "ready queue"
    std::uint32_t rateName = 0;   ///< obs::NameId of "dispatch rate"
    Time nextSample = 0;
    std::uint64_t lastDispatched = 0;  ///< dispatched_ at the last sample
  };
  void sampleObs(ObsHandles& h);

  Time now_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t dispatched_ = 0;
  std::uint64_t orderDigest_ = 1469598103934665603ULL;  // FNV-1a offset
  int liveDetached_ = 0;
  detail::CalendarQueue queue_;
  std::exception_ptr firstException_{};
  util::Rng rng_;

  obs::Hub* obs_ = nullptr;
  std::uint64_t obsEpoch_ = 0;
  Time obsSampleInterval_ = 0.1;
  obs::HubCache<ObsHandles> obsHandles_;
};

}  // namespace iop::sim
