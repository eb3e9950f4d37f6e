#include "sweep/executor.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>

#include "analysis/degraded.hpp"
#include "analysis/multiop.hpp"
#include "analysis/replay.hpp"
#include "obs/profiler.hpp"
#include "obs/recorder.hpp"
#include "sim/framepool.hpp"
#include "sweep/telemetry.hpp"
#include "util/vfs.hpp"

namespace iop::sweep {

namespace {

double secondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Serialized view of the (not thread-safe) Logger for worker threads.
/// An event's fields come as a callable that renders them; it runs only
/// when the line will be written, so a sweep with no logger attached (or
/// a quieter level) builds no per-cell strings.
class SharedLog {
 public:
  explicit SharedLog(obs::Logger* log) : log_(log) {}

  template <typename Fields>
  void info(const char* event, const Fields& fields) {
    emit(obs::LogLevel::Info, event, fields);
  }
  template <typename Fields>
  void warn(const char* event, const Fields& fields) {
    emit(obs::LogLevel::Warn, event, fields);
  }

 private:
  template <typename Fields>
  void emit(obs::LogLevel level, const char* event, const Fields& fields) {
    if (log_ == nullptr || !log_->enabled(level)) return;
    const std::string rendered = fields();
    std::lock_guard<std::mutex> guard(mutex_);
    log_->log(level, "sweep", event, rendered);
  }

  obs::Logger* log_;
  std::mutex mutex_;
};

std::string cellFields(const ResolvedCampaign& campaign,
                       const CellSpec& cell) {
  return "\"cell\":\"" +
         obs::TraceRecorder::jsonEscape(campaign.cellTitle(cell)) +
         "\",\"key\":\"" + cell.key + "\"";
}

/// Result slot shared between a worker and the detached evaluation thread
/// the watchdog supervises.  The thread owns `result`/`error` until it
/// flips `done`; after a hard-deadline abandonment nobody reads them, so
/// the thread can finish (or hang) without touching anything the run
/// still cares about.
struct EvalTask {
  std::mutex mutex;
  std::condition_variable cv;
  bool done = false;
  bool failed = false;
  CellResult result;
  std::string error;
};

}  // namespace

CellResult evaluateCell(const ResolvedCampaign& campaign,
                        const CellSpec& cell) {
  IOP_PROFILE_SCOPE("sweep.cell");
  const ResolvedModel& model = campaign.models[cell.modelIndex];
  const ResolvedConfig& config = campaign.configs[cell.configIndex];

  // Every measurement runs on a fresh, cold, private instance of the
  // candidate configuration with the cell's fault factors applied.
  analysis::ConfigBuilder builder = [&config, &cell]() {
    return config.build(cell.degradeDisks, cell.degradeNet);
  };

  CellResult result;
  result.key = cell.key;
  result.modelLabel = model.label;
  result.configLabel = config.label;
  result.degradeDisks = cell.degradeDisks;
  result.degradeNet = cell.degradeNet;
  result.np = model.model.np();
  result.weightBytes = model.model.totalWeightBytes();

  if (cell.faulted()) {
    // Degraded-mode cell: one seeded replica of the whole-model synthetic
    // replay under the fault plan.  Deterministic, so a replica whose run
    // dies at phase level is still a committable (cacheable) result.
    const ResolvedFault& faultSrc = campaign.faults[cell.faultIndex];
    const auto degraded = analysis::estimateDegraded(
        model.model, builder, faultSrc.plan, {cell.faultSeed});
    const analysis::FaultReplica& replica = degraded.replicas.front();
    result.estimator = kFaultEstimatorVersion;
    result.faultLabel = faultSrc.label;
    result.faultSeed = cell.faultSeed;
    result.faultRetries = replica.retries;
    result.faultFailovers = replica.failovers;
    result.faultStallSeconds = replica.stallSeconds;
    if (replica.ok) {
      result.timeIo = replica.timeIo;
    } else {
      result.faultError = replica.error;
    }
    for (const auto& p : degraded.phases) {
      const double bw = p.medianTimeSec > 0
                            ? static_cast<double>(p.weightBytes) /
                                  p.medianTimeSec
                            : 0;
      result.phases.push_back(
          {p.phaseId, p.familyId, p.weightBytes, bw, p.medianTimeSec});
    }
    return result;
  }

  analysis::Replayer replayer(builder, config.mount);
  analysis::Estimate estimate =
      campaign.spec.multiop
          ? analysis::estimateIoTimeMultiOp(model.model, replayer, builder,
                                            config.mount)
          : analysis::estimateIoTime(model.model, replayer);
  result.estimator = campaign.spec.estimatorVersion();
  result.timeIo = estimate.totalTimeSec;
  result.iorRuns = replayer.benchmarkRuns();
  for (const auto& p : estimate.phases) {
    result.phases.push_back({p.phaseId, p.familyId, p.weightBytes,
                             p.bandwidthCH, p.timeCH});
  }
  return result;
}

SweepOutcome runSweep(const ResolvedCampaign& campaign, CampaignStore& store,
                      const SweepOptions& options, obs::Logger* log,
                      obs::MetricsRegistry* metrics) {
  IOP_PROFILE_SCOPE("sweep.run");
  if (options.jobs < 1) {
    throw std::invalid_argument("sweep: jobs must be >= 1");
  }
  const auto startedAt = std::chrono::steady_clock::now();
  SharedLog sharedLog(log);
  SweepTelemetry* tele = options.telemetry;

  // Wall-clock pause between claim and evaluation, so tests/CI can kill
  // the process deterministically mid-cell.  Affects timing only — never
  // results — and is off (0) outside the test harness.
  int testDelayMs = 0;
  if (const char* env = std::getenv("IOP_SWEEP_TEST_CELL_DELAY_MS")) {
    testDelayMs = std::atoi(env);
  }
  // Same, but applied to a cell's *first* attempt only, so watchdog tests
  // can make attempt 1 overrun the hard deadline and the retry succeed.
  int testDelayOnceMs = 0;
  if (const char* env =
          std::getenv("IOP_SWEEP_TEST_CELL_DELAY_ONCE_MS")) {
    testDelayOnceMs = std::atoi(env);
  }

  store.initialize(campaign.spec.canonicalText(), options.force);
  if (tele != nullptr) {
    store.setTelemetry(tele, "store");
  }

  std::optional<CellPool> shared;
  if (!options.sharedStore.empty()) {
    shared.emplace(std::filesystem::path(options.sharedStore));
    if (tele != nullptr) {
      shared->setTelemetry(tele, "shared_store");
    }
  }
  // Probe order: the campaign's own pool, then the shared one; a forced
  // run probes neither.
  std::vector<const CellPool*> pools;
  if (!options.force) {
    pools.push_back(&store);
    if (shared) pools.push_back(&*shared);
  }

  SweepOutcome outcome;
  const std::vector<CellSpec> plan = campaign.planCells();
  outcome.cells.resize(plan.size());
  for (std::size_t i = 0; i < plan.size(); ++i) {
    outcome.cells[i].spec = plan[i];
  }

  // Serial cache probe, plus key-dedup: identical cells (same key) are
  // evaluated once and share the result.
  std::vector<std::size_t> pending;       // owner index per unique key
  std::map<std::string, std::size_t> owners;
  std::map<std::string, std::vector<std::size_t>> followers;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    IOP_PROFILE_SCOPE("sweep.probe");
    const CellSpec& cell = plan[i];
    CellOutcome& out = outcome.cells[i];
    for (const CellPool* pool : pools) {
      if (!pool->hasCell(cell.key)) continue;
      const bool fromShared = pool != &store;
      // tryLoadCell treats a torn/corrupt file as a miss: the bad bytes
      // move to the pool's quarantine/ and the probe falls through to the
      // next pool, then to recomputation.
      std::string whyBad;
      if (auto loaded = pool->tryLoadCell(cell.key, &whyBad)) {
        out.status = CellOutcome::Status::Cached;
        out.result = std::move(*loaded);
        // A shared hit is adopted: cell bytes are a pure function of the
        // key, so render() reproduces them exactly.  Captures are a pure
        // function of the result, so one is written for an adopted cell,
        // and regenerated in place for an own cell whose torn capture
        // iop-fsck quarantined — either way the store converges on the
        // bytes an uninterrupted local run would have written.
        if (fromShared) store.saveCell(out.result);
        if (options.writeCaptures &&
            (fromShared ||
             !std::filesystem::exists(store.capturePath(cell.key)))) {
          store.saveCapture(cell.key, makeCellCapture(out.result));
        }
        ++outcome.cacheHits;
        if (fromShared) ++outcome.sharedHits;
        sharedLog.info(fromShared ? "shared_hit" : "cache_hit",
                       [&] { return cellFields(campaign, cell); });
        if (tele != nullptr) {
          tele->cacheHit(campaign.cellTitle(cell), cell.key, fromShared);
        }
        break;
      }
      ++outcome.quarantined;
      sharedLog.warn(
          fromShared ? "shared_cell_quarantined" : "cell_quarantined", [&] {
            return cellFields(campaign, cell) + ",\"error\":\"" +
                   obs::TraceRecorder::jsonEscape(whyBad) + "\"";
          });
      if (tele != nullptr) {
        tele->cellQuarantined(campaign.cellTitle(cell), cell.key, whyBad,
                              fromShared);
      }
    }
    if (out.status == CellOutcome::Status::Cached) continue;
    auto [it, inserted] = owners.emplace(cell.key, i);
    if (inserted) {
      pending.push_back(i);
    } else {
      followers[cell.key].push_back(i);
    }
  }

  const std::size_t workers = std::min<std::size_t>(
      static_cast<std::size_t>(options.jobs), pending.size());
  if (tele != nullptr) {
    tele->execStart(plan.size(), outcome.cacheHits, outcome.sharedHits,
                    pending.size(), workers);
  }

  // Fixed-size pool over the pending list.  Each worker owns its cell's
  // outcome slot exclusively; the only other shared mutable state is the
  // retry queue the watchdog feeds.
  std::atomic<std::size_t> cursor{0};
  std::atomic<std::size_t> inFlight{0};
  std::atomic<std::size_t> stuckCount{0};
  std::mutex doneMutex;  // serializes options.onCellDone
  std::mutex retryMutex;
  std::deque<std::size_t> retryQueue;  // watchdog second attempts
  const bool watchdog = options.hardDeadlineSeconds > 0 ||
                        options.softDeadlineSeconds > 0;
  auto cancelled = [&options]() {
    return options.cancel != nullptr &&
           options.cancel->load(std::memory_order_relaxed);
  };
  auto workerMain = [&](std::size_t worker) {
    if (tele != nullptr) tele->workerSpawn(worker);
    for (;;) {
      // Check between cells, never mid-cell: a cancelled run keeps every
      // result already committed and leaves no partial files behind.
      if (cancelled()) {
        if (tele != nullptr) tele->shutdownNoticed();
        break;
      }
      // Retries first: a cell another worker abandoned is older work
      // than anything still behind the cursor.
      std::size_t index = 0;
      int attempt = 1;
      bool claimed = false;
      {
        std::lock_guard<std::mutex> guard(retryMutex);
        if (!retryQueue.empty()) {
          index = retryQueue.front();
          retryQueue.pop_front();
          attempt = 2;
          claimed = true;
        }
      }
      if (!claimed &&
          cursor.load(std::memory_order_relaxed) < pending.size()) {
        const std::size_t slot = cursor.fetch_add(1);
        if (slot < pending.size()) {
          index = pending[slot];
          claimed = true;
        }
      }
      if (!claimed) {
        // Drained — but a cell still in flight elsewhere may yet be
        // abandoned into the retry queue, so only leave once nothing is
        // in flight anywhere.
        if (inFlight.load(std::memory_order_acquire) > 0) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
          continue;
        }
        break;
      }
      inFlight.fetch_add(1, std::memory_order_acq_rel);
      CellOutcome& out = outcome.cells[index];
      const double tClaim = tele != nullptr ? tele->now() : 0;
      if (tele != nullptr) {
        tele->cellClaim(worker, campaign.cellTitle(out.spec),
                        out.spec.key);
      }
      if (testDelayMs > 0 && !watchdog) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(testDelayMs));
      }
      const auto cellStart = std::chrono::steady_clock::now();
      bool abandoned = false;
      bool evalOk = false;
      CellResult evalResult;
      std::string evalError;
      if (!watchdog) {
        try {
          evalResult = evaluateCell(campaign, out.spec);
          evalOk = true;
        } catch (const std::exception& e) {
          evalError = e.what();
        }
      } else {
        // Supervised evaluation: the cell computes on a detached thread
        // (a hung evaluation must never hang the pool) that reads only
        // `campaign` plus its private spec copy and writes only into
        // `task`.  The worker waits out the deadlines here.
        auto task = std::make_shared<EvalTask>();
        const int delayMs =
            testDelayMs + (attempt == 1 ? testDelayOnceMs : 0);
        std::thread([task, &campaign, spec = out.spec, delayMs]() {
          try {
            if (delayMs > 0) {
              std::this_thread::sleep_for(
                  std::chrono::milliseconds(delayMs));
            }
            CellResult r = evaluateCell(campaign, spec);
            {
              std::lock_guard<std::mutex> guard(task->mutex);
              task->result = std::move(r);
              task->done = true;
            }
            task->cv.notify_all();
          } catch (const std::exception& e) {
            {
              std::lock_guard<std::mutex> guard(task->mutex);
              task->error = e.what();
              task->failed = true;
              task->done = true;
            }
            task->cv.notify_all();
          }
        }).detach();

        std::unique_lock<std::mutex> lock(task->mutex);
        bool slow = false;
        if (options.softDeadlineSeconds > 0) {
          const bool doneSoft = task->cv.wait_for(
              lock,
              std::chrono::duration<double>(options.softDeadlineSeconds),
              [&] { return task->done; });
          if (!doneSoft) {
            slow = true;
            lock.unlock();
            sharedLog.warn("cell_slow", [&] {
              return cellFields(campaign, out.spec) + ",\"deadline_s\":" +
                     std::to_string(options.softDeadlineSeconds);
            });
            if (tele != nullptr) {
              tele->cellSlow(worker, campaign.cellTitle(out.spec),
                             out.spec.key, options.softDeadlineSeconds);
            }
            lock.lock();
          }
        }
        bool finished;
        if (options.hardDeadlineSeconds > 0) {
          finished = task->cv.wait_until(
              lock,
              cellStart +
                  std::chrono::duration_cast<
                      std::chrono::steady_clock::duration>(
                      std::chrono::duration<double>(
                          options.hardDeadlineSeconds)),
              [&] { return task->done; });
        } else {
          task->cv.wait(lock, [&] { return task->done; });
          finished = true;
        }
        if (slow && tele != nullptr) tele->cellSlowResolved();
        if (finished) {
          evalOk = !task->failed;
          if (evalOk) {
            evalResult = std::move(task->result);
          } else {
            evalError = task->error;
          }
        } else {
          abandoned = true;
        }
      }
      if (abandoned) {
        stuckCount.fetch_add(1, std::memory_order_relaxed);
        const bool retrying = attempt < 2;
        out.status = CellOutcome::Status::Failed;
        out.error = "stuck: evaluation exceeded the hard deadline (" +
                    std::to_string(options.hardDeadlineSeconds) +
                    "s) on attempt " + std::to_string(attempt);
        out.seconds = secondsSince(cellStart);
        // Leave a marker so an operator (and iop-fsck) can tell the cell
        // was abandoned, not merely slow.  Scratch durability: markers
        // are advisory and must not perturb crash-point numbering.
        try {
          const std::filesystem::path marker =
              store.root() / "quarantine" /
              (out.spec.key + ".stuck." + std::to_string(attempt));
          std::filesystem::create_directories(marker.parent_path());
          util::vfs::replaceFile(
              marker,
              "stuck: " + campaign.cellTitle(out.spec) + " attempt " +
                  std::to_string(attempt) + " exceeded hard deadline " +
                  std::to_string(options.hardDeadlineSeconds) + "s\n",
              util::vfs::Durability::Scratch);
        } catch (const std::exception&) {
          // Best-effort: a marker failure must not fail the run.
        }
        sharedLog.warn("cell_stuck", [&] {
          return cellFields(campaign, out.spec) +
                 ",\"attempt\":" + std::to_string(attempt) +
                 ",\"retry\":" + (retrying ? "true" : "false");
        });
        if (tele != nullptr) {
          tele->cellStuck(worker, campaign.cellTitle(out.spec),
                          out.spec.key, attempt,
                          options.hardDeadlineSeconds, retrying);
        }
        if (retrying) {
          // Queue before the in-flight decrement below, so idle workers
          // never observe "nothing in flight, nothing queued" while the
          // retry is in between.
          std::lock_guard<std::mutex> guard(retryMutex);
          retryQueue.push_back(index);
        }
      } else {
        if (evalOk) {
          try {
            out.result = std::move(evalResult);
            const double tEval = tele != nullptr ? tele->now() : 0;
            store.saveCell(out.result);
            if (options.writeCaptures) {
              store.saveCapture(out.spec.key,
                                makeCellCapture(out.result));
            }
            // Deposit into the shared pool as well; racing processes
            // write identical bytes through unique temp names, so this
            // is safe.
            if (shared) shared->saveCell(out.result);
            out.status = CellOutcome::Status::Computed;
            out.seconds = secondsSince(cellStart);
            sharedLog.info("cell_done", [&] {
              return cellFields(campaign, out.spec) + ",\"time_io\":" +
                     std::to_string(out.result.timeIo) + ",\"ior_runs\":" +
                     std::to_string(out.result.iorRuns);
            });
            if (tele != nullptr) {
              tele->cellCommit(worker, campaign.cellTitle(out.spec),
                               out.spec.key, tClaim, tEval, tele->now(),
                               out.result.timeIo, out.result.iorRuns,
                               out.spec.faulted());
            }
          } catch (const std::exception& e) {
            evalOk = false;
            evalError = e.what();
          }
        }
        if (!evalOk) {
          out.status = CellOutcome::Status::Failed;
          out.error = evalError;
          out.seconds = secondsSince(cellStart);
          sharedLog.warn("cell_failed", [&] {
            return cellFields(campaign, out.spec) + ",\"error\":\"" +
                   obs::TraceRecorder::jsonEscape(evalError) + "\"";
          });
          if (tele != nullptr) {
            tele->cellFailed(worker, campaign.cellTitle(out.spec),
                             out.spec.key, tClaim, tele->now(),
                             evalError);
          }
        }
      }
      const bool terminal = !(abandoned && attempt < 2);
      if (terminal && options.onCellDone) {
        std::lock_guard<std::mutex> guard(doneMutex);
        options.onCellDone(out);
      }
      // Between cells the worker's engines are gone, so every coroutine
      // slab with no abandoned daemon frames is dead — hand those back to
      // the OS instead of holding the run's high-water mark.
      auto& arena = sim::FrameArena::local();
      const std::size_t released = arena.trim();
      if (tele != nullptr) {
        tele->arenaTrimmed(worker, released, arena.stats().slabBytes);
      }
      inFlight.fetch_sub(1, std::memory_order_acq_rel);
    }
    if (tele != nullptr) tele->workerIdle(worker);
  };

  if (workers <= 1) {
    workerMain(0);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::size_t i = 0; i < workers; ++i) {
      pool.emplace_back(workerMain, i);
    }
    for (auto& t : pool) t.join();
  }

  // Every fetched slot was carried to completion (the cancel check sits
  // before the fetch), so after the join the untaken tail is exactly
  // [cursor, end) — those cells were never started and stay resumable.
  const std::size_t taken =
      std::min(cursor.load(std::memory_order_relaxed), pending.size());
  for (std::size_t slot = taken; slot < pending.size(); ++slot) {
    CellOutcome& out = outcome.cells[pending[slot]];
    out.status = CellOutcome::Status::Skipped;
    out.error = "interrupted before evaluation; resume to compute";
  }
  if (tele != nullptr && taken < pending.size()) {
    tele->cellsSkipped(pending.size() - taken);
  }
  if (cancelled()) outcome.interrupted = true;
  outcome.stuck = stuckCount.load(std::memory_order_relaxed);

  // Propagate deduped results to the duplicate cells.
  for (const auto& [key, dupes] : followers) {
    const CellOutcome& owner = outcome.cells[owners.at(key)];
    for (std::size_t index : dupes) {
      outcome.cells[index].status = owner.status;
      outcome.cells[index].result = owner.result;
      outcome.cells[index].error = owner.error;
    }
  }

  for (const auto& cell : outcome.cells) {
    switch (cell.status) {
      case CellOutcome::Status::Cached:
        break;  // counted at probe time
      case CellOutcome::Status::Computed:
        ++outcome.computed;
        break;
      case CellOutcome::Status::Failed:
        ++outcome.failures;
        break;
      case CellOutcome::Status::Skipped:
        ++outcome.skipped;
        break;
    }
  }
  // IOR cost from owners only: a deduped follower shares its owner's
  // evaluation, so counting it again would overstate the run.
  for (std::size_t index : pending) {
    if (outcome.cells[index].status == CellOutcome::Status::Computed) {
      outcome.iorRuns += outcome.cells[index].result.iorRuns;
    }
  }

  // The manifest is rewritten serially, in canonical order, after the
  // pool joins — the last step of a successful run.
  store.writeManifest(campaign, plan);
  outcome.wallSeconds = secondsSince(startedAt);

  if (metrics != nullptr) {
    metrics->counter("sweep.cells").add(static_cast<double>(plan.size()));
    metrics->counter("sweep.cache_hits")
        .add(static_cast<double>(outcome.cacheHits));
    metrics->counter("sweep.shared_hits")
        .add(static_cast<double>(outcome.sharedHits));
    metrics->counter("sweep.computed")
        .add(static_cast<double>(outcome.computed));
    metrics->counter("sweep.failures")
        .add(static_cast<double>(outcome.failures));
    metrics->counter("sweep.skipped")
        .add(static_cast<double>(outcome.skipped));
    metrics->counter("sweep.quarantined")
        .add(static_cast<double>(outcome.quarantined));
    metrics->counter("sweep.stuck")
        .add(static_cast<double>(outcome.stuck));
    metrics->counter("sweep.ior_runs")
        .add(static_cast<double>(outcome.iorRuns));
  }
  sharedLog.info("run_complete", [&] {
    return "\"cells\":" + std::to_string(plan.size()) +
           ",\"cache_hits\":" + std::to_string(outcome.cacheHits) +
           ",\"shared_hits\":" + std::to_string(outcome.sharedHits) +
           ",\"computed\":" + std::to_string(outcome.computed) +
           ",\"failures\":" + std::to_string(outcome.failures) +
           ",\"skipped\":" + std::to_string(outcome.skipped) +
           ",\"quarantined\":" + std::to_string(outcome.quarantined) +
           ",\"interrupted\":" + (outcome.interrupted ? "true" : "false") +
           ",\"jobs\":" + std::to_string(options.jobs);
  });
  if (tele != nullptr) {
    tele->runComplete(plan.size(), outcome.cacheHits, outcome.sharedHits,
                      outcome.computed, outcome.failures, outcome.skipped,
                      outcome.quarantined, outcome.interrupted,
                      outcome.wallSeconds);
  }
  return outcome;
}

}  // namespace iop::sweep
