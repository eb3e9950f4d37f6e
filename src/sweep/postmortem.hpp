// Postmortem reconstruction of a campaign run from its flight-recorder
// journal (telemetry.hpp / obs::RunJournal).
//
// A journal is append-only and flushed per event, so after a crash or
// SIGKILL it ends at the last thing the process did.  analyzeJournal()
// folds the event stream into a Postmortem: what the run was, how far it
// got, whether it finished, and — the part that matters after a kill —
// exactly which cells were claimed but never committed (the in-flight
// set).  Those cells lost at most their own work: the store only ever
// holds whole cells (atomic renames), so `iop-sweep resume` recomputes
// precisely the in-flight + never-claimed remainder.
#pragma once

#include <cstddef>
#include <filesystem>
#include <string>
#include <vector>

#include "obs/journal.hpp"

namespace iop::sweep {

/// A cell that was claimed but neither committed nor failed before the
/// journal ended.
struct InFlightCell {
  std::size_t worker = 0;
  std::string cell;  ///< human title
  std::string key;
  double claimedAt = 0;  ///< journal time of the claim
};

struct Postmortem {
  // Identity (journal_start / campaign_start).
  std::string schema;
  double startUnixMs = 0;
  long pid = 0;
  std::string campaign;
  std::string configHash;
  int jobs = 0;

  // Grid shape (exec_start).
  std::size_t cells = 0;
  std::size_t pending = 0;
  std::size_t workers = 0;

  // Progress tallies folded over the stream.
  std::size_t events = 0;
  std::size_t badLines = 0;
  std::size_t cacheHits = 0;
  std::size_t sharedHits = 0;
  std::size_t quarantined = 0;
  std::size_t claims = 0;
  std::size_t commits = 0;
  std::size_t failures = 0;
  std::size_t stuck = 0;  ///< watchdog hard-deadline abandonments
  std::size_t skippedCells = 0;

  bool shutdownRequested = false;
  bool complete = false;     ///< the journal contains run_complete
  bool interrupted = false;  ///< run_complete reported a cancelled run
  double lastEventT = 0;
  std::string lastEventName;

  std::vector<InFlightCell> inFlight;  ///< claim order
};

/// Fold a parsed journal into a Postmortem.  Tolerant by construction:
/// unknown events are counted and skipped, missing fields default to
/// zero, so journals from newer/older writers still analyze.
Postmortem analyzeJournal(const obs::JournalParse& parsed);

/// Human-readable report (multi-line, trailing newline).
std::string renderPostmortem(const Postmortem& pm,
                             const std::filesystem::path& journalPath);

/// The newest `run-*.jsonl` under `<storeRoot>/journal`, or an empty path
/// when none exist.  "Newest" by the unix-ms timestamp embedded in the
/// filename, so it works on filesystems with coarse mtimes.
std::filesystem::path newestJournal(const std::filesystem::path& storeRoot);

}  // namespace iop::sweep
