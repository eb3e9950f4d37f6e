#include "sweep/telemetry.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <stdexcept>

#include "util/vfs.hpp"

namespace iop::sweep {

namespace {

std::string esc(const std::string& raw) {
  return obs::TraceRecorder::jsonEscape(raw);
}

std::string fmtSec(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.6f", v);
  return buf;
}

std::string fmtNum(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.12g", v);
  return buf;
}

constexpr auto kRenderInterval = std::chrono::milliseconds(100);

}  // namespace

// --------------------------------------------------------- ProgressMeter

ProgressMeter::ProgressMeter(bool enabled, std::FILE* out)
    : enabled_(enabled), out_(out) {}

void ProgressMeter::begin(std::size_t cells, std::size_t cached,
                          std::size_t shared, std::size_t pending,
                          std::size_t workers) {
  {
    std::lock_guard<std::mutex> guard(mutex_);
    cells_ = cells;
    cached_ = cached;
    shared_ = shared;
    pending_ = pending;
    workers_ = std::max<std::size_t>(workers, 1);
  }
  maybeRender();
}

void ProgressMeter::claim() {
  {
    std::lock_guard<std::mutex> guard(mutex_);
    ++busy_;
  }
  maybeRender();
}

void ProgressMeter::cellDone(double seconds, bool failed) {
  {
    std::lock_guard<std::mutex> guard(mutex_);
    ++done_;
    if (failed) ++failed_;
    ewma_ = ewma_ == 0 ? seconds : 0.3 * seconds + 0.7 * ewma_;
  }
  maybeRender();
}

void ProgressMeter::release() {
  std::lock_guard<std::mutex> guard(mutex_);
  if (busy_ > 0) --busy_;
}

std::size_t ProgressMeter::doneCells() const {
  std::lock_guard<std::mutex> guard(mutex_);
  return done_;
}

double ProgressMeter::ewmaSeconds() const {
  std::lock_guard<std::mutex> guard(mutex_);
  return ewma_;
}

double ProgressMeter::etaLocked() const {
  if (pending_ <= done_ || workers_ == 0) return 0;
  return ewma_ * static_cast<double>(pending_ - done_) /
         static_cast<double>(workers_);
}

double ProgressMeter::etaSeconds() const {
  std::lock_guard<std::mutex> guard(mutex_);
  return etaLocked();
}

double ProgressMeter::hitRate() const {
  std::lock_guard<std::mutex> guard(mutex_);
  return cells_ == 0 ? 0 : static_cast<double>(cached_) /
                               static_cast<double>(cells_);
}

std::string ProgressMeter::renderLocked() const {
  char buf[256];
  std::string line;
  std::snprintf(buf, sizeof buf, "[%zu/%zu] ", done_, pending_);
  line += buf;
  std::snprintf(buf, sizeof buf, "computed %zu", done_ - failed_);
  line += buf;
  if (failed_ > 0) {
    std::snprintf(buf, sizeof buf, " failed %zu", failed_);
    line += buf;
  }
  std::snprintf(buf, sizeof buf, " | cached %zu", cached_);
  line += buf;
  if (shared_ > 0) {
    std::snprintf(buf, sizeof buf, " (%zu shared)", shared_);
    line += buf;
  }
  const double eta = etaLocked();
  if (eta > 0) {
    std::snprintf(buf, sizeof buf, " | eta %.1fs", eta);
    line += buf;
  }
  std::snprintf(buf, sizeof buf, " | workers %zu/%zu busy", busy_,
                workers_);
  line += buf;
  return line;
}

std::string ProgressMeter::renderLine() const {
  std::lock_guard<std::mutex> guard(mutex_);
  return renderLocked();
}

void ProgressMeter::maybeRender() {
  if (!enabled_ || out_ == nullptr) return;
  std::lock_guard<std::mutex> guard(mutex_);
  const auto now = std::chrono::steady_clock::now();
  if (lastRender_.time_since_epoch().count() != 0 &&
      now - lastRender_ < kRenderInterval) {
    return;
  }
  lastRender_ = now;
  std::string line = renderLocked();
  const std::size_t width = line.size();
  // Pad with spaces so a shrinking line fully overwrites its predecessor.
  if (width < lastWidth_) line.append(lastWidth_ - width, ' ');
  lastWidth_ = width;
  std::fprintf(out_, "\r%s", line.c_str());
  std::fflush(out_);
}

void ProgressMeter::finish() {
  if (!enabled_ || out_ == nullptr) return;
  std::lock_guard<std::mutex> guard(mutex_);
  std::string line = renderLocked();
  if (line.size() < lastWidth_) line.append(lastWidth_ - line.size(), ' ');
  std::fprintf(out_, "\r%s\n", line.c_str());
  std::fflush(out_);
  enabled_ = false;  // finish() renders once
}

// -------------------------------------------------------- SweepTelemetry

SweepTelemetry::SweepTelemetry(const TelemetryConfig& config)
    : progress_(config.progress),
      telemetryOut_(config.telemetryOut),
      execTraceOut_(config.execTraceOut),
      intervalMs_(config.telemetryIntervalMs),
      epoch_(std::chrono::steady_clock::now()) {
  if (intervalMs_ < 10) {
    throw std::invalid_argument(
        "telemetry interval must be >= 10 ms, got " +
        std::to_string(intervalMs_));
  }
  if (!config.journalPath.empty()) {
    journal_ = std::make_unique<obs::RunJournal>(config.journalPath);
  }
  if (!execTraceOut_.empty()) {
    trace_ = std::make_unique<obs::TraceRecorder>();
  }
  if (!telemetryOut_.empty()) {
    const std::filesystem::path out(telemetryOut_);
    if (out.has_parent_path()) {
      std::filesystem::create_directories(out.parent_path());
    }
    writeSnapshot();  // the file exists from t=0, not only after one tick
    snapshotThread_ = std::thread([this] {
      std::unique_lock<std::mutex> lock(mutex_);
      while (!wake_.wait_for(lock, std::chrono::milliseconds(intervalMs_),
                             [this] { return stopping_; })) {
        lock.unlock();
        writeSnapshot();
        lock.lock();
      }
    });
  }
}

SweepTelemetry::~SweepTelemetry() {
  try {
    finish();
  } catch (...) {
    // Destructor must not throw; the final flush is best-effort here.
  }
}

double SweepTelemetry::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

std::optional<double> SweepTelemetry::counterValue(
    const std::string& name) const {
  std::lock_guard<std::mutex> guard(mutex_);
  const auto* counter = metrics_.findCounter(name);
  if (counter == nullptr) return std::nullopt;
  return counter->value();
}

std::string SweepTelemetry::renderProm() const {
  std::lock_guard<std::mutex> guard(mutex_);
  return metrics_.renderProm();
}

void SweepTelemetry::writeSnapshot() {
  // Scratch durability: snapshots are observational, rewritten on a timer
  // from a background thread, and must not perturb the deterministic
  // barrier numbering the crash injector counts.
  util::vfs::replaceFile(telemetryOut_, renderProm(),
                         util::vfs::Durability::Scratch);
}

int SweepTelemetry::workerTrack(std::size_t worker) {
  return trace_->track(obs::TrackKind::Worker,
                       "worker " + std::to_string(worker));
}

int SweepTelemetry::controlTrack() {
  return trace_->track(obs::TrackKind::Worker, "executor");
}

void SweepTelemetry::modelCacheHit(const std::string& model) {
  {
    std::lock_guard<std::mutex> guard(mutex_);
    metrics_.counter("sweep.model_cache_hits").add();
  }
  if (journal_) {
    journal_->event("model_cache_hit", "\"model\":\"" + esc(model) + "\"");
  }
}

void SweepTelemetry::modelCharacterized(const std::string& model,
                                        std::size_t phases,
                                        double seconds) {
  {
    std::lock_guard<std::mutex> guard(mutex_);
    metrics_.counter("sweep.characterized").add();
    metrics_.histogram("sweep.resolve_seconds", obs::latencyBucketsSeconds())
        .observe(seconds);
  }
  if (journal_) {
    journal_->event("model_characterized",
                    "\"model\":\"" + esc(model) +
                        "\",\"phases\":" + std::to_string(phases) +
                        ",\"seconds\":" + fmtSec(seconds));
  }
}

void SweepTelemetry::characterizeSpan(std::size_t worker,
                                      const std::string& model,
                                      double beginSec, double endSec) {
  std::lock_guard<std::mutex> guard(mutex_);
  if (!trace_) return;
  trace_->span(obs::TrackKind::Worker, workerTrack(worker),
               "characterize " + model, "resolve", beginSec, endSec);
}

void SweepTelemetry::campaignStart(const std::string& name,
                                   const std::string& configHash,
                                   int jobs) {
  if (journal_) {
    journal_->event("campaign_start",
                    "\"campaign\":\"" + esc(name) + "\",\"config\":\"" +
                        esc(configHash) +
                        "\",\"jobs\":" + std::to_string(jobs));
  }
}

void SweepTelemetry::execStart(std::size_t cells, std::size_t cached,
                               std::size_t shared, std::size_t pending,
                               std::size_t workers) {
  {
    std::lock_guard<std::mutex> guard(mutex_);
    metrics_.counter("sweep.cells").add(static_cast<double>(cells));
    metrics_.counter("sweep.pending").add(static_cast<double>(pending));
  }
  progress_.begin(cells, cached, shared, pending, workers);
  if (journal_) {
    journal_->event("exec_start",
                    "\"cells\":" + std::to_string(cells) +
                        ",\"cached\":" + std::to_string(cached) +
                        ",\"shared\":" + std::to_string(shared) +
                        ",\"pending\":" + std::to_string(pending) +
                        ",\"workers\":" + std::to_string(workers));
  }
}

void SweepTelemetry::cacheHit(const std::string& cell,
                              const std::string& key, bool shared) {
  {
    std::lock_guard<std::mutex> guard(mutex_);
    metrics_.counter("sweep.cache_hits").add();
    if (shared) metrics_.counter("sweep.shared_hits").add();
  }
  if (journal_) {
    journal_->event(shared ? "shared_hit" : "cache_hit",
                    "\"cell\":\"" + esc(cell) + "\",\"key\":\"" + esc(key) +
                        "\"");
  }
}

void SweepTelemetry::cellQuarantined(const std::string& cell,
                                     const std::string& key,
                                     const std::string& error,
                                     bool shared) {
  {
    std::lock_guard<std::mutex> guard(mutex_);
    metrics_.counter("sweep.quarantined").add();
    if (trace_) {
      trace_->instant(obs::TrackKind::Worker, controlTrack(),
                      "quarantine " + cell, "store", now(),
                      "\"key\":\"" + esc(key) + "\"");
    }
  }
  if (journal_) {
    journal_->event("cell_quarantined",
                    "\"cell\":\"" + esc(cell) + "\",\"key\":\"" + esc(key) +
                        "\",\"error\":\"" + esc(error) + "\",\"shared\":" +
                        (shared ? "true" : "false"));
  }
}

void SweepTelemetry::workerSpawn(std::size_t worker) {
  {
    std::lock_guard<std::mutex> guard(mutex_);
    metrics_.counter("sweep.worker_spawns").add();
  }
  if (journal_) {
    journal_->event("worker_spawn",
                    "\"worker\":" + std::to_string(worker));
  }
}

void SweepTelemetry::workerIdle(std::size_t worker) {
  if (journal_) {
    journal_->event("worker_idle", "\"worker\":" + std::to_string(worker));
  }
}

void SweepTelemetry::cellClaim(std::size_t worker, const std::string& cell,
                               const std::string& key) {
  {
    std::lock_guard<std::mutex> guard(mutex_);
    metrics_.gauge("sweep.workers_busy").add(1);
  }
  progress_.claim();
  if (journal_) {
    journal_->event("cell_claim",
                    "\"worker\":" + std::to_string(worker) +
                        ",\"cell\":\"" + esc(cell) + "\",\"key\":\"" +
                        esc(key) + "\"");
  }
}

void SweepTelemetry::cellCommit(std::size_t worker, const std::string& cell,
                                const std::string& key, double claimSec,
                                double evalSec, double commitSec,
                                double timeIo, std::size_t iorRuns,
                                bool faulted) {
  {
    std::lock_guard<std::mutex> guard(mutex_);
    metrics_.counter("sweep.computed").add();
    metrics_.histogram("sweep.replay_seconds", obs::latencyBucketsSeconds())
        .observe(evalSec - claimSec);
    metrics_.histogram("sweep.commit_seconds", obs::latencyBucketsSeconds())
        .observe(commitSec - evalSec);
    metrics_.gauge("sweep.workers_busy").add(-1);
    if (trace_) {
      const int tid = workerTrack(worker);
      const std::string args = "\"key\":\"" + esc(key) + "\"";
      trace_->span(obs::TrackKind::Worker, tid, "replay " + cell, "replay",
                   claimSec, evalSec, args);
      trace_->span(obs::TrackKind::Worker, tid, "commit " + cell, "commit",
                   evalSec, commitSec, args);
      if (faulted) {
        trace_->instant(obs::TrackKind::Worker, tid, "fault " + cell,
                        "fault", claimSec, args);
      }
    }
  }
  progress_.cellDone(commitSec - claimSec, /*failed=*/false);
  progress_.release();
  if (journal_) {
    journal_->event(
        "cell_commit",
        "\"worker\":" + std::to_string(worker) + ",\"cell\":\"" +
            esc(cell) + "\",\"key\":\"" + esc(key) +
            "\",\"seconds\":" + fmtSec(commitSec - claimSec) +
            ",\"commit_seconds\":" + fmtSec(commitSec - evalSec) +
            ",\"time_io\":" + fmtNum(timeIo) +
            ",\"ior_runs\":" + std::to_string(iorRuns) +
            ",\"faulted\":" + (faulted ? "true" : "false"));
    maybeNoteJournalDisabled();
  }
}

void SweepTelemetry::cellFailed(std::size_t worker, const std::string& cell,
                                const std::string& key, double claimSec,
                                double failSec, const std::string& error) {
  {
    std::lock_guard<std::mutex> guard(mutex_);
    metrics_.counter("sweep.failures").add();
    metrics_.gauge("sweep.workers_busy").add(-1);
    if (trace_) {
      const int tid = workerTrack(worker);
      const std::string args = "\"key\":\"" + esc(key) + "\"";
      trace_->span(obs::TrackKind::Worker, tid, "replay " + cell, "replay",
                   claimSec, failSec, args);
      trace_->instant(obs::TrackKind::Worker, tid, "failed " + cell,
                      "fault", failSec, args);
    }
  }
  progress_.cellDone(failSec - claimSec, /*failed=*/true);
  progress_.release();
  if (journal_) {
    journal_->event("cell_failed",
                    "\"worker\":" + std::to_string(worker) +
                        ",\"cell\":\"" + esc(cell) + "\",\"key\":\"" +
                        esc(key) + "\",\"seconds\":" +
                        fmtSec(failSec - claimSec) + ",\"error\":\"" +
                        esc(error) + "\"");
    maybeNoteJournalDisabled();
  }
}

void SweepTelemetry::cellSlow(std::size_t worker, const std::string& cell,
                              const std::string& key, double deadlineSec) {
  {
    std::lock_guard<std::mutex> guard(mutex_);
    metrics_.counter("sweep.cells_slow").add();
    metrics_.gauge("sweep.slow_cells").add(1);
    if (trace_) {
      trace_->instant(obs::TrackKind::Worker, workerTrack(worker),
                      "slow " + cell, "watchdog", now(),
                      "\"key\":\"" + esc(key) + "\"");
    }
  }
  if (journal_) {
    journal_->event("cell_slow",
                    "\"worker\":" + std::to_string(worker) +
                        ",\"cell\":\"" + esc(cell) + "\",\"key\":\"" +
                        esc(key) +
                        "\",\"deadline_s\":" + fmtSec(deadlineSec));
    maybeNoteJournalDisabled();
  }
}

void SweepTelemetry::cellSlowResolved() {
  std::lock_guard<std::mutex> guard(mutex_);
  metrics_.gauge("sweep.slow_cells").add(-1);
}

void SweepTelemetry::cellStuck(std::size_t worker, const std::string& cell,
                               const std::string& key, int attempt,
                               double deadlineSec, bool retrying) {
  {
    std::lock_guard<std::mutex> guard(mutex_);
    metrics_.counter("sweep.cells_stuck").add();
    metrics_.gauge("sweep.workers_busy").add(-1);
    if (trace_) {
      trace_->instant(obs::TrackKind::Worker, workerTrack(worker),
                      "stuck " + cell, "watchdog", now(),
                      "\"key\":\"" + esc(key) + "\"");
    }
  }
  progress_.release();
  if (!retrying) {
    progress_.cellDone(deadlineSec, /*failed=*/true);
  }
  if (journal_) {
    journal_->event("cell_stuck",
                    "\"worker\":" + std::to_string(worker) +
                        ",\"cell\":\"" + esc(cell) + "\",\"key\":\"" +
                        esc(key) + "\",\"attempt\":" +
                        std::to_string(attempt) +
                        ",\"deadline_s\":" + fmtSec(deadlineSec) +
                        ",\"retry\":" + (retrying ? "true" : "false"));
    maybeNoteJournalDisabled();
  }
}

void SweepTelemetry::arenaTrimmed(std::size_t worker,
                                  std::size_t releasedBytes,
                                  std::size_t slabBytes) {
  std::lock_guard<std::mutex> guard(mutex_);
  metrics_.counter("sim.arena_trim_bytes")
      .add(static_cast<double>(releasedBytes));
  // Last writer wins across workers: the gauge tracks one thread-local
  // arena's footprint, which is representative — workers run the same
  // kind of cells — without needing per-worker metric names.
  metrics_.gauge("sim.arena_bytes").set(static_cast<double>(slabBytes));
  if (trace_ && releasedBytes > 0) {
    trace_->counterSample(obs::TrackKind::Worker, workerTrack(worker),
                          "arena bytes", now(),
                          static_cast<double>(slabBytes));
  }
}

void SweepTelemetry::shutdownNoticed() {
  if (shutdownSeen_.exchange(true, std::memory_order_relaxed)) return;
  {
    std::lock_guard<std::mutex> guard(mutex_);
    metrics_.counter("sweep.shutdowns").add();
    if (trace_) {
      trace_->instant(obs::TrackKind::Worker, controlTrack(),
                      "shutdown requested", "signal", now());
    }
  }
  if (journal_) journal_->event("shutdown_requested");
}

void SweepTelemetry::cellsSkipped(std::size_t count) {
  {
    std::lock_guard<std::mutex> guard(mutex_);
    metrics_.counter("sweep.skipped").add(static_cast<double>(count));
  }
  if (journal_) {
    journal_->event("cells_skipped", "\"count\":" + std::to_string(count));
  }
}

void SweepTelemetry::runComplete(std::size_t cells, std::size_t cacheHits,
                                 std::size_t sharedHits,
                                 std::size_t computed, std::size_t failures,
                                 std::size_t skipped,
                                 std::size_t quarantined, bool interrupted,
                                 double wallSeconds) {
  if (journal_) {
    journal_->event(
        "run_complete",
        "\"cells\":" + std::to_string(cells) +
            ",\"cache_hits\":" + std::to_string(cacheHits) +
            ",\"shared_hits\":" + std::to_string(sharedHits) +
            ",\"computed\":" + std::to_string(computed) +
            ",\"failures\":" + std::to_string(failures) +
            ",\"skipped\":" + std::to_string(skipped) +
            ",\"quarantined\":" + std::to_string(quarantined) +
            ",\"interrupted\":" + (interrupted ? "true" : "false") +
            ",\"wall_seconds\":" + fmtSec(wallSeconds));
  }
}

void SweepTelemetry::storeLoad(const std::string& prefix, bool loaded) {
  std::lock_guard<std::mutex> guard(mutex_);
  metrics_.counter(prefix + (loaded ? ".cell_loads" : ".quarantines")).add();
}

void SweepTelemetry::storeCommit(const std::string& prefix,
                                 std::size_t bytes) {
  std::lock_guard<std::mutex> guard(mutex_);
  metrics_.counter(prefix + ".cell_commits").add();
  metrics_.counter(prefix + ".cell_bytes").add(static_cast<double>(bytes));
}

void SweepTelemetry::storeCaptureCommit(const std::string& prefix) {
  std::lock_guard<std::mutex> guard(mutex_);
  metrics_.counter(prefix + ".capture_commits").add();
}

void SweepTelemetry::maybeNoteJournalDisabled() {
  if (!journal_ || !journal_->disabled()) return;
  if (journalDisabledNoted_.exchange(true, std::memory_order_relaxed)) {
    return;
  }
  std::lock_guard<std::mutex> guard(mutex_);
  metrics_.counter("sweep.journal_disabled").add();
}

void SweepTelemetry::finish() {
  if (finished_.exchange(true, std::memory_order_acq_rel)) return;
  maybeNoteJournalDisabled();
  if (snapshotThread_.joinable()) {
    {
      std::lock_guard<std::mutex> guard(mutex_);
      stopping_ = true;
    }
    wake_.notify_all();
    snapshotThread_.join();
    writeSnapshot();  // final state always lands on disk
  }
  progress_.finish();
  std::lock_guard<std::mutex> guard(mutex_);
  if (trace_) trace_->saveJson(execTraceOut_);
}

}  // namespace iop::sweep
