// Attachment point for simulation-wide observability.
//
// A Hub bundles the optional sinks — a TraceRecorder (timeline spans,
// instants, counter tracks), a MetricsRegistry (named counters, gauges,
// histograms), an EdgeRecorder (causal dependency edges for critical-path
// analysis), and a Logger (structured JSONL warnings/diagnostics).
// Instrumented components reach the hub through their sim::Engine
// (`engine.obs()`), which is null unless a caller attached one, so the
// only cost of instrumentation in an unobserved run is a pointer test.
// Recording must never perturb the simulation: hub users may not touch
// Engine::rng() or schedule/reorder events.
//
// Components resolve what they record against a hub (track ids, label and
// name ids, instrument handles) once and keep it in an obs::HubCache keyed
// to the engine's attach epoch, so the hot path appends plain data and a
// newly attached hub is never fed ids from the previous one.
//
// Session is the convenience owner used by tools and tests: it owns one
// instance of each sink and exposes the Hub view to attach to engines.
// Unwanted sinks are disabled by nulling the corresponding Hub pointer.
#pragma once

#include "obs/edges.hpp"
#include "obs/hubcache.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"

namespace iop::obs {

struct Hub {
  TraceRecorder* trace = nullptr;
  MetricsRegistry* metrics = nullptr;
  EdgeRecorder* edges = nullptr;
  Logger* log = nullptr;

  bool wantsLog(LogLevel lvl) const noexcept {
    return log != nullptr && log->enabled(lvl);
  }
};

/// Owns one sink of each kind; hand `hub()` to Engine::setObs.
class Session {
 public:
  Session() {
    hub_.trace = &recorder_;
    hub_.metrics = &metrics_;
    hub_.edges = &edges_;
    hub_.log = &log_;
  }

  Hub* hub() noexcept { return &hub_; }
  TraceRecorder& recorder() noexcept { return recorder_; }
  MetricsRegistry& metrics() noexcept { return metrics_; }
  EdgeRecorder& edges() noexcept { return edges_; }
  Logger& log() noexcept { return log_; }

 private:
  TraceRecorder recorder_;
  MetricsRegistry metrics_;
  EdgeRecorder edges_;
  Logger log_;
  Hub hub_;
};

}  // namespace iop::obs
