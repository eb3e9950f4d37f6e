#include "sim/engine.hpp"

#include <bit>

#include "obs/hub.hpp"

namespace iop::sim {

namespace detail {

void reportDetachedException(Engine& engine, std::exception_ptr exc) {
  if (!engine.firstException_) engine.firstException_ = exc;
}

void noteDetachedTaskFinished(Engine& engine) { --engine.liveDetached_; }

namespace {

/// One FNV-1a-style fold per 64-bit word: cheap enough for the dispatch
/// hot loop, yet any reordering of the (when, seq) stream changes it.
inline std::uint64_t foldWord(std::uint64_t h, std::uint64_t word) noexcept {
  return (h ^ word) * 1099511628211ULL;
}

}  // namespace
}  // namespace detail

Engine::Engine(std::uint64_t seed) : rng_(seed) {}

Engine::~Engine() {
  queue_.drainEach([this](const detail::QueuedEvent& ev) {
    if (ev.ownsHandle && ev.handle) {
      ev.handle.destroy();
      --liveDetached_;
    }
  });
}

void Engine::spawn(Task<void> task) { spawnAt(now_, std::move(task)); }

void Engine::spawnAt(Time when, Task<void> task) {
  // Validate before detaching: on throw, ~Task still owns and frees the
  // frame.
  if (!std::isfinite(when)) {
    throw std::invalid_argument("Engine::spawnAt: non-finite time");
  }
  auto handle = task.release();
  if (!handle) return;
  handle.promise().engine = this;
  handle.promise().detached = true;
  ++liveDetached_;
  scheduleImpl(when, handle, true);
}

void Engine::dispatchUntil(Time limit, bool bounded) {
  for (;;) {
    const detail::QueuedEvent* top = queue_.peek(now_);
    if (top == nullptr) return;
    if (bounded && top->when > limit) {
      now_ = limit;
      return;
    }
    const detail::QueuedEvent ev = queue_.pop(now_);
    now_ = ev.when;
    ++dispatched_;
    orderDigest_ = detail::foldWord(
        detail::foldWord(orderDigest_, std::bit_cast<std::uint64_t>(ev.when)),
        ev.seq);
    if (obs_ != nullptr) [[unlikely]] observeDispatch();
    ev.handle.resume();
    if (firstException_) [[unlikely]] throwIfFailed();
  }
}

void Engine::observeDispatch() {
  ObsHandles& h = obsHandles_.get(obsEpoch_, [&](ObsHandles& fresh) {
    // This dispatch is the first the newly attached hub sees; the first
    // "dispatch rate" sample counts from it.
    fresh.lastDispatched = dispatched_ - 1;
  });
  if (now_ >= h.nextSample) sampleObs(h);
}

/// Throttled engine-level samples: ready-queue depth as a counter track,
/// dispatch totals into the registry.  Sampling reads state only; it never
/// schedules or consumes randomness.  Instrument handles, the track id and
/// the series names are resolved once per attached hub — registries
/// guarantee stable addresses — so the sample itself is just buffered
/// appends.
void Engine::sampleObs(ObsHandles& h) {
  if (obs_->metrics != nullptr) {
    if (h.dispatchedGauge == nullptr) {
      h.dispatchedGauge = &obs_->metrics->gauge("sim.events_dispatched");
      h.liveGauge = &obs_->metrics->gauge("sim.live_processes");
    }
    h.dispatchedGauge->set(static_cast<double>(dispatched_));
    h.liveGauge->set(static_cast<double>(liveDetached_));
  }
  if (obs_->trace != nullptr) {
    if (h.track < 0) {
      h.track = obs_->trace->track(obs::TrackKind::Sim, "engine");
      h.readyName = obs_->trace->name("ready queue");
      h.rateName = obs_->trace->name("dispatch rate");
    }
    obs_->trace->counterSample(obs::TrackKind::Sim, h.track, h.readyName,
                               now_, static_cast<double>(queue_.size()));
    obs_->trace->counterSample(
        obs::TrackKind::Sim, h.track, h.rateName, now_,
        static_cast<double>(dispatched_ - h.lastDispatched));
  }
  h.lastDispatched = dispatched_;
  h.nextSample = now_ + obsSampleInterval_;
}

void Engine::throwIfFailed() {
  if (firstException_) {
    std::exception_ptr exc = firstException_;
    firstException_ = nullptr;
    std::rethrow_exception(exc);
  }
}

void Engine::run() {
  dispatchUntil(0, false);
  if (liveDetached_ > 0) {
    if (obs_ != nullptr && obs_->wantsLog(obs::LogLevel::Warn)) {
      obs_->log->warn("engine", "deadlock_detector_armed",
                      "\"blocked_processes\":" +
                          std::to_string(liveDetached_) +
                          ",\"sim_time\":" + std::to_string(now_));
    }
    throw DeadlockError("simulation deadlock: " +
                        std::to_string(liveDetached_) +
                        " process(es) blocked with an empty event queue");
  }
}

void Engine::runUntil(Time limit) { dispatchUntil(limit, true); }

void Engine::drain() { dispatchUntil(0, false); }

}  // namespace iop::sim
