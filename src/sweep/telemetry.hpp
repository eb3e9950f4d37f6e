// Runtime telemetry for campaign execution: the glue between the sweep
// executor and the obs wall-clock sinks.
//
// One SweepTelemetry object per `iop-sweep run` bundles the three pillars:
//
//   * a RunJournal flight recorder (obs/journal.hpp) under
//     <store>/journal/ — every lifecycle event (campaign start, cache
//     hits, cell claims/commits, worker spawns, shutdown) as one flushed
//     JSONL line, so a crashed or SIGKILLed run leaves a reconstructable
//     timeline (see postmortem.hpp);
//   * an obs::MetricsRegistry of wall-clock counters, gauges and latency
//     histograms, snapshotted as Prometheus text exposition to
//     --telemetry-out by a timer thread;
//   * an optional obs::TraceRecorder emitting the execution itself — one
//     TrackKind::Worker track per worker, spans for characterize / replay
//     / commit — to --exec-trace-out.
//
// The registry and the trace sit behind one mutex: every hook takes it
// once and updates both, and the snapshot thread renders under it.  The
// journal and the progress meter keep their own locks (a journal append
// is an fsync, which the snapshot thread should not wait behind).
//
// Everything here is observation-only: no instrument feeds back into any
// scheduling or result-affecting decision, so a store written with
// telemetry on is byte-identical to one written with it off (the tests
// and CI pin exactly that).  All hook methods are thread-safe; a null
// SweepTelemetry pointer in SweepOptions/ResolveOptions disables the
// whole subsystem at zero cost.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdio>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>

#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"

namespace iop::sweep {

struct TelemetryConfig {
  std::string journalPath;    ///< JSONL flight recorder ("" = off)
  std::string telemetryOut;   ///< Prometheus snapshot file ("" = off)
  int telemetryIntervalMs = 500;  ///< snapshot period; must be >= 10
  bool progress = false;      ///< live status line on stderr
  std::string execTraceOut;   ///< Chrome trace of the execution ("" = off)
};

/// Progress accounting for one run, with an optional single-line TTY
/// display.  `done` counts evaluated cells only (computed + failed);
/// cached and shared-store hits are tracked separately so a resume that
/// is 100% cache hits reports an honest 0-cells-evaluated, matching the
/// journal, instead of an inflated done count.  The ETA is an EWMA of
/// per-cell wall seconds scaled by the remaining pending cells per
/// worker.
class ProgressMeter {
 public:
  explicit ProgressMeter(bool enabled, std::FILE* out = stderr);

  void begin(std::size_t cells, std::size_t cached, std::size_t shared,
             std::size_t pending, std::size_t workers);
  void claim();
  void cellDone(double seconds, bool failed);
  void release();  ///< a claimed cell finished (busy worker count -1)
  void finish();   ///< final render + newline (enabled only)

  std::size_t doneCells() const;
  double ewmaSeconds() const;
  double etaSeconds() const;
  /// Fraction of the grid served from caches, in [0, 1].
  double hitRate() const;
  std::string renderLine() const;

 private:
  std::string renderLocked() const;
  double etaLocked() const;
  void maybeRender();

  mutable std::mutex mutex_;
  bool enabled_ = false;
  std::FILE* out_ = nullptr;
  std::size_t cells_ = 0;
  std::size_t cached_ = 0;
  std::size_t shared_ = 0;
  std::size_t pending_ = 0;
  std::size_t workers_ = 0;
  std::size_t done_ = 0;
  std::size_t failed_ = 0;
  std::size_t busy_ = 0;
  double ewma_ = 0;  ///< EWMA of per-cell seconds (alpha = 0.3)
  std::chrono::steady_clock::time_point lastRender_{};
  std::size_t lastWidth_ = 0;
};

/// The per-run telemetry bundle.  Hook methods fan each event out to the
/// metrics registry, the exec trace, the journal and the progress meter —
/// whichever of those the config enabled.
class SweepTelemetry {
 public:
  /// Throws std::invalid_argument for a telemetryIntervalMs below 10.
  explicit SweepTelemetry(const TelemetryConfig& config);
  ~SweepTelemetry();

  SweepTelemetry(const SweepTelemetry&) = delete;
  SweepTelemetry& operator=(const SweepTelemetry&) = delete;

  obs::RunJournal* journal() noexcept { return journal_.get(); }
  ProgressMeter& progress() noexcept { return progress_; }

  /// A counter's value, read under the lock; std::nullopt until some
  /// hook first bumped it.
  std::optional<double> counterValue(const std::string& name) const;
  /// The registry as Prometheus text exposition, rendered under the lock
  /// (what the snapshot thread writes to --telemetry-out).
  std::string renderProm() const;

  /// Wall-clock seconds since construction (the exec-trace timebase).
  double now() const;

  // ---- campaign resolution (campaign.cpp) ----
  void modelCacheHit(const std::string& model);
  void modelCharacterized(const std::string& model, std::size_t phases,
                          double seconds);
  /// Trace-only: the characterize span on resolver-worker `worker`'s
  /// track.  Safe from any thread while resolution runs.
  void characterizeSpan(std::size_t worker, const std::string& model,
                        double beginSec, double endSec);

  // ---- run lifecycle (iop_sweep.cpp / executor.cpp) ----
  void campaignStart(const std::string& name, const std::string& configHash,
                     int jobs);
  void execStart(std::size_t cells, std::size_t cached, std::size_t shared,
                 std::size_t pending, std::size_t workers);
  void cacheHit(const std::string& cell, const std::string& key,
                bool shared);
  void cellQuarantined(const std::string& cell, const std::string& key,
                       const std::string& error, bool shared);
  void workerSpawn(std::size_t worker);
  void workerIdle(std::size_t worker);
  void cellClaim(std::size_t worker, const std::string& cell,
                 const std::string& key);
  void cellCommit(std::size_t worker, const std::string& cell,
                  const std::string& key, double claimSec, double evalSec,
                  double commitSec, double timeIo, std::size_t iorRuns,
                  bool faulted);
  void cellFailed(std::size_t worker, const std::string& cell,
                  const std::string& key, double claimSec, double failSec,
                  const std::string& error);
  /// Watchdog: a cell crossed its soft deadline (still running).  The
  /// `sweep.slow_cells` gauge goes +1 here and -1 when the cell resolves
  /// (commit, failure or hard-deadline abandonment).
  void cellSlow(std::size_t worker, const std::string& cell,
                const std::string& key, double deadlineSec);
  void cellSlowResolved();
  /// Watchdog: a cell crossed its hard deadline and was abandoned.
  /// `retrying` is true when attempt 1 was quarantined and the cell was
  /// queued for one retry on another worker; false means the retry also
  /// stuck and the cell is terminally failed.
  void cellStuck(std::size_t worker, const std::string& cell,
                 const std::string& key, int attempt, double deadlineSec,
                 bool retrying);
  void arenaTrimmed(std::size_t worker, std::size_t releasedBytes,
                    std::size_t slabBytes);
  void shutdownNoticed();  ///< idempotent: first caller journals it
  void cellsSkipped(std::size_t count);
  void runComplete(std::size_t cells, std::size_t cacheHits,
                   std::size_t sharedHits, std::size_t computed,
                   std::size_t failures, std::size_t skipped,
                   std::size_t quarantined, bool interrupted,
                   double wallSeconds);

  // ---- store operations (store.cpp), counted under `<prefix>.` ----
  void storeLoad(const std::string& prefix, bool loaded);
  void storeCommit(const std::string& prefix, std::size_t bytes);
  void storeCaptureCommit(const std::string& prefix);

  /// Flush everything: stop the snapshot thread (writing one final
  /// exposition), finish the progress line, save the exec trace.
  /// Idempotent; also runs on destruction.
  void finish();

 private:
  /// Track ids on the exec trace; call with mutex_ held and trace_ set.
  int workerTrack(std::size_t worker);
  int controlTrack();
  /// Render under the lock, then replace --telemetry-out outside it.
  void writeSnapshot();
  /// Bumps `sweep.journal_disabled` (once) after a journal write failure
  /// silenced the flight recorder, so the loss shows up in the metrics
  /// even though the journal itself can no longer record it.
  void maybeNoteJournalDisabled();

  mutable std::mutex mutex_;  ///< guards metrics_, trace_ and stopping_
  obs::MetricsRegistry metrics_;
  std::unique_ptr<obs::TraceRecorder> trace_;  ///< --exec-trace-out only
  std::unique_ptr<obs::RunJournal> journal_;
  ProgressMeter progress_;
  std::string telemetryOut_;
  std::string execTraceOut_;
  int intervalMs_ = 500;
  std::condition_variable wake_;  ///< stops the snapshot thread's wait
  bool stopping_ = false;
  std::thread snapshotThread_;
  std::chrono::steady_clock::time_point epoch_;
  std::atomic<bool> shutdownSeen_{false};
  std::atomic<bool> finished_{false};
  std::atomic<bool> journalDisabledNoted_{false};
};

}  // namespace iop::sweep
