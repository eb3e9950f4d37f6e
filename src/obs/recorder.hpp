// Timeline recorder with Chrome trace-event JSON export.
//
// Captures begin/end spans, instant events, and counter samples keyed to
// *simulated* time (or, for the wall-clock profiler track, microseconds
// since the profiler epoch) and serializes them in the Trace Event Format
// that Perfetto and chrome://tracing load natively.
//
// Track model: a track is one (pid, tid) pair.  Track kinds map to fixed
// pids so Perfetto groups related timelines — one process group for MPI
// ranks (one thread per rank), one for storage devices, one for the
// analysis profiler, one for the engine itself.  Metadata events name the
// groups and tracks.
//
// Recording is an append of plain data.  Event names and categories are
// ids into the recorder's string table (name() interns; a seam resolves
// its names once per hub), and args are typed integers in a side column.
// writeJson() renders all of it once, at the end.  The std::string entry
// points are thin wrappers that intern on every call, for cold callers
// (the wall-clock profiler, the sweep Worker tracks) and tests.
//
// The recorder is deliberately passive: it never reads the engine RNG and
// never schedules anything, so attaching it cannot perturb a simulation.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/column.hpp"
#include "obs/strings.hpp"

namespace iop::obs {

/// Track kind == Chrome trace "process" group.  Values are the exported
/// pids (stable, part of the file format the tests check).
enum class TrackKind : int {
  Rank = 1,      ///< one track per MPI rank
  Device = 2,    ///< one track per storage device / cache
  Profiler = 3,  ///< wall-clock analysis-pipeline spans
  Sim = 4,       ///< engine-level counters (queue depth, dispatch rate)
  Worker = 5,    ///< wall-clock sweep-executor workers (SweepTelemetry)
};

/// Event phases we emit (subset of the Trace Event Format).
enum class EventPhase : char {
  Complete = 'X',  ///< span with ts + dur
  Instant = 'i',
  Counter = 'C',
};

/// Id of an event name or category in a TraceRecorder's string table.
using NameId = StrId;

/// Typed args of one span or instant: the integer fields the seams
/// record.  Only the fields named in `fields` are stored, and they render
/// in this member order ({"file":..,"offset":..,"bytes":..,"tick":..}).
struct TraceArgs {
  enum Field : std::uint8_t {
    kFile = 1,
    kOffset = 2,
    kBytes = 4,
    kTick = 8,
  };
  std::uint8_t fields = 0;
  std::int64_t file = 0;
  std::uint64_t offset = 0;
  std::uint64_t bytes = 0;
  std::uint64_t tick = 0;

  TraceArgs& withFile(std::int64_t v) noexcept { return set(file, v, kFile); }
  TraceArgs& withOffset(std::uint64_t v) noexcept {
    return set(offset, v, kOffset);
  }
  TraceArgs& withBytes(std::uint64_t v) noexcept {
    return set(bytes, v, kBytes);
  }
  TraceArgs& withTick(std::uint64_t v) noexcept { return set(tick, v, kTick); }

 private:
  template <class T>
  TraceArgs& set(T& field, T v, Field bit) noexcept {
    field = v;
    fields = static_cast<std::uint8_t>(fields | bit);
    return *this;
  }
};

struct TraceEvent {
  double tsUs = 0;  ///< microseconds (simulated or wall, by track kind)
  /// Complete: duration in microseconds.  Counter: the sample's value.
  double durUs = 0;
  NameId name = 0;
  NameId cat = 0;
  int tid = 0;
  std::uint8_t pid = 0;
  EventPhase phase = EventPhase::Instant;
  /// TraceArgs::Field bits, or kJson (a pre-rendered args body from a
  /// string entry point).  The words sit in the recorder's args column in
  /// event order; writeJson() finds each event's by a running count.
  std::uint8_t args = 0;

  static constexpr std::uint8_t kJson = 16;
};

class TraceRecorder {
 public:
  /// Get-or-create the track for (kind, name); returns its tid.  Names are
  /// unique per kind; re-registering an existing name returns the same
  /// track.
  int track(TrackKind kind, const std::string& name);

  /// Convenience for the per-rank tracks ("rank 0", "rank 1", ...).
  int rankTrack(int rank);

  /// Id of `text` as an event name or category (interned on first use).
  NameId name(std::string_view text) { return names_.intern(text); }
  const std::string& nameText(NameId id) const { return names_.str(id); }

  /// Span over [beginSec, endSec] in the track's timebase (seconds).
  void span(TrackKind kind, int tid, NameId name, NameId cat,
            double beginSec, double endSec, const TraceArgs& args = {}) {
    TraceEvent& ev = push(kind, tid, name, cat, EventPhase::Complete,
                          beginSec, args);
    ev.durUs = (endSec - beginSec) * kUsPerSec;
    if (ev.durUs < 0) ev.durUs = 0;
  }

  void instant(TrackKind kind, int tid, NameId name, NameId cat,
               double atSec, const TraceArgs& args = {}) {
    push(kind, tid, name, cat, EventPhase::Instant, atSec, args);
  }

  /// One sample of a counter series.  Chrome plots one series per
  /// (track, name); `value` lands in args as {"value": v}.
  void counterSample(TrackKind kind, int tid, NameId name, double atSec,
                     double value) {
    push(kind, tid, name, counterCat_, EventPhase::Counter, atSec, {})
        .durUs = value;
  }

  /// String entry points: intern, then record as above.  `argsJson` is a
  /// pre-rendered args object body ("\"k\":1,..."), empty = no args.
  void span(TrackKind kind, int tid, const std::string& name,
            const std::string& cat, double beginSec, double endSec,
            std::string argsJson = {});
  void instant(TrackKind kind, int tid, const std::string& name,
               const std::string& cat, double atSec,
               std::string argsJson = {});
  void counterSample(TrackKind kind, int tid, const std::string& name,
                     double atSec, double value) {
    counterSample(kind, tid, this->name(name), atSec, value);
  }

  std::size_t eventCount() const noexcept { return events_.size(); }
  const Column<TraceEvent>& events() const noexcept { return events_; }

  /// Serialize as a Chrome trace JSON object.  Events are emitted sorted
  /// by timestamp (stable: insertion order breaks ties), so the output is
  /// strictly time-ordered and deterministic for a deterministic run.
  void writeJson(std::ostream& out) const;
  void saveJson(const std::string& path) const;

  /// Escape a string for embedding in a JSON string literal (exposed for
  /// callers pre-rendering argsJson).
  static std::string jsonEscape(const std::string& raw);

 private:
  static constexpr double kUsPerSec = 1e6;

  TraceEvent& push(TrackKind kind, int tid, NameId name, NameId cat,
                   EventPhase phase, double atSec, const TraceArgs& args) {
    TraceEvent& ev = events_.emplace_back();
    ev.tsUs = atSec * kUsPerSec;
    ev.name = name;
    ev.cat = cat;
    ev.tid = tid;
    ev.pid = static_cast<std::uint8_t>(kind);
    ev.phase = phase;
    if (args.fields != 0) {
      ev.args = args.fields;
      if (args.fields & TraceArgs::kFile) {
        argWords_.push_back(static_cast<std::uint64_t>(args.file));
      }
      if (args.fields & TraceArgs::kOffset) argWords_.push_back(args.offset);
      if (args.fields & TraceArgs::kBytes) argWords_.push_back(args.bytes);
      if (args.fields & TraceArgs::kTick) argWords_.push_back(args.tick);
    }
    return ev;
  }
  /// Attach a pre-rendered args body (string entry points).
  void attachJson(TraceEvent& ev, std::string argsJson);
  /// Render `ev`'s args, whose words start at args column index `word`.
  void renderArgs(std::ostream& out, const TraceEvent& ev,
                  std::size_t word) const;

  struct Track {
    TrackKind kind;
    int tid = 0;
    std::string name;
  };

  std::map<std::pair<int, std::string>, int> trackIds_;  ///< (pid,name)->tid
  std::vector<Track> tracks_;
  std::map<int, int> nextTid_;  ///< per pid
  StringTable names_;  ///< event names and categories
  NameId counterCat_ = names_.intern("counter");
  Column<TraceEvent> events_;
  /// Args column: each event's fields in TraceArgs order, or an index
  /// into jsonArgs_.
  Column<std::uint64_t> argWords_;
  std::vector<std::string> jsonArgs_;
};

}  // namespace iop::obs
