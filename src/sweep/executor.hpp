// The campaign executor: a fixed-size worker pool evaluating grid cells.
//
// Threading model: each worker evaluates one cell at a time with a
// completely private stack — a fresh ClusterConfig (own sim::Engine, own
// topology) built from captured text, a private Replayer, a private
// Estimate.  Workers share only the atomic work cursor, the result slots
// (disjoint per cell), and the store directory (disjoint files, atomic
// renames).  The simulations themselves stay single-threaded and
// deterministic, so a cell's bytes are a pure function of its cache key —
// which is what makes the store byte-identical for any -j and lets a
// second run be 100% cache hits.
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "sweep/campaign.hpp"
#include "sweep/store.hpp"

namespace iop::sweep {

struct CellOutcome;
class SweepTelemetry;

struct SweepOptions {
  int jobs = 1;              ///< worker threads (>= 1)
  bool force = false;        ///< recompute cached cells (and replace a
                             ///< mismatched store)
  bool writeCaptures = true; ///< also commit iop-diff'able captures
  /// Optional campaign-independent shared cache directory (a bare
  /// CellPool): probed after the campaign store on a miss — a hit is
  /// adopted into the campaign store — and every computed cell is
  /// deposited back.  Empty disables sharing.
  std::string sharedStore;
  /// Cooperative cancellation (SIGINT/SIGTERM in iop-sweep): when the
  /// pointee becomes true, workers stop taking new cells after finishing
  /// — and committing — the one in flight.  Untouched cells are reported
  /// as Skipped and the outcome is marked interrupted; a later resume
  /// picks up exactly the uncommitted remainder.
  const std::atomic<bool>* cancel = nullptr;
  /// Test/progress hook, invoked serially (under a lock) after each cell
  /// is committed or fails.  May flip `cancel` to exercise shutdown.
  std::function<void(const CellOutcome&)> onCellDone;
  /// Optional runtime telemetry bundle (flight recorder, live metrics,
  /// exec trace — see telemetry.hpp).  Observation-only: the store bytes
  /// are identical with and without it.
  SweepTelemetry* telemetry = nullptr;
  /// Hung-worker watchdog (0 = off, the default).  With a soft deadline,
  /// a cell still evaluating after that many wall seconds is journaled as
  /// `cell_slow` (and counts on the `sweep.slow_cells` gauge) but keeps
  /// running.  With a hard deadline, a cell that exceeds it is abandoned:
  /// the evaluation thread is left to finish (or hang) in the background
  /// — it only ever computes, it never touches the store — a
  /// `quarantine/<key>.stuck.<attempt>` marker is written, and the cell
  /// is retried once on whichever worker is free next.  A second timeout
  /// fails the cell with a "stuck" error.  Deadlines don't perturb
  /// results: a store written with the watchdog on is byte-identical to
  /// one written with it off (abandoned attempts commit nothing).
  /// Caveat: an abandoned evaluation may still be running when runSweep
  /// returns; it references only the ResolvedCampaign, so callers must
  /// keep the campaign alive for the process lifetime when enabling hard
  /// deadlines (iop-sweep does).
  double softDeadlineSeconds = 0;
  double hardDeadlineSeconds = 0;
};

struct CellOutcome {
  enum class Status { Cached, Computed, Failed, Skipped };

  CellSpec spec;
  Status status = Status::Failed;
  CellResult result;    ///< valid unless Failed/Skipped
  std::string error;    ///< Failed/Skipped only
  double seconds = 0;   ///< wall time spent computing (0 for cached)
};

struct SweepOutcome {
  std::vector<CellOutcome> cells;  ///< canonical campaign order
  std::size_t cacheHits = 0;
  std::size_t sharedHits = 0;  ///< subset of cacheHits served by the
                               ///< shared store
  std::size_t quarantined = 0;  ///< corrupt cached cells set aside and
                                ///< recomputed
  std::size_t computed = 0;
  std::size_t failures = 0;
  std::size_t skipped = 0;  ///< cells not started before cancellation
  std::size_t stuck = 0;    ///< watchdog hard-deadline abandonments
                            ///< (includes retried attempts)
  std::size_t iorRuns = 0;  ///< IOR executions across computed cells
  double wallSeconds = 0;
  bool interrupted = false;  ///< cancellation stopped the run early

  bool ok() const noexcept {
    return failures == 0 && skipped == 0 && !interrupted;
  }
};

/// Evaluate one cell synchronously (no store involved).  The building
/// block workers run; exposed for tests and the micro-benchmark.
CellResult evaluateCell(const ResolvedCampaign& campaign,
                        const CellSpec& cell);

/// Run (or resume) a campaign against a store: probe the cache serially,
/// evaluate the misses on `options.jobs` workers, commit results
/// atomically, and rewrite the manifest in canonical order.  Logs per-cell
/// progress to `log` and bumps `sweep.*` counters on `metrics` (either may
/// be null).
SweepOutcome runSweep(const ResolvedCampaign& campaign, CampaignStore& store,
                      const SweepOptions& options,
                      obs::Logger* log = nullptr,
                      obs::MetricsRegistry* metrics = nullptr);

}  // namespace iop::sweep
