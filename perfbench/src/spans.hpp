// In-memory span log for the pipeline benchmark's traced runs.
//
// The benchmark times each layer from outside: it opens a span around
// every call it makes into a module's public functions ("mpi.run" around
// Runtime::runToCompletion, "replay.measure" around Replayer::measure,
// ...).  Spans nest on one thread through a stack, so each records the
// span that was open when it started as its parent.  Nothing is written
// while the benchmark measures; the spans are rendered once at the end.
#pragma once

#include <chrono>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;  ///< "<layer>.<operation>", e.g. "mpi.run"
  int parent = -1;   ///< index of the enclosing span, -1 for a root
  double start = 0;  ///< seconds since the log's epoch
  double end = 0;
};

/// Spans of one thread, recorded down to `maxDepth` levels of nesting
/// (0 records nothing).  Deeper spans cost no clock reads: open() and
/// close() only return.
class SpanLog {
 public:
  static constexpr std::size_t kAllLevels = static_cast<std::size_t>(-1);

  explicit SpanLog(std::size_t maxDepth = 0);

  /// Start a span under the innermost open one; returns its id (-1 when
  /// it is deeper than maxDepth).
  int open(const char* name);
  /// End the span `id` (must be the innermost open one).
  void close(int id);

  const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Run `probe` under a span named `name` at every boundary of a span
  /// `depth` levels down: before it opens and after it closes.
  void setProbe(std::function<void()> probe, const char* name,
                std::size_t depth);
  /// Run the probe now, under the innermost open span, at any depth (a
  /// no-op without a probe).  Safe from another thread only while calls
  /// are serialized and the log's own thread waits, as in a sweep's
  /// onCellDone while runSweep blocks.
  void probeNow();

 private:
  double now() const;
  void maybeProbe();

  std::function<void()> probe_;
  const char* probeName_ = nullptr;
  std::size_t probeDepth_ = 0;

  std::size_t maxDepth_;
  std::chrono::steady_clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span.
class Scope {
 public:
  Scope(SpanLog& log, const char* name) : log_(log), id_(log.open(name)) {}
  ~Scope() { log_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog& log_;
  int id_;
};

/// A span's duration minus the part of its interval that its children
/// cover (overlapping children are counted once).
std::vector<double> selfSeconds(const std::vector<Span>& spans);

/// Layer of a span: the name up to the first '.'.
std::string layerOf(const std::string& spanName);

/// Summed self seconds per layer.
std::map<std::string, double> selfSecondsByLayer(
    const std::vector<Span>& spans);

/// Summed duration per span name.
std::map<std::string, double> totalSecondsByName(
    const std::vector<Span>& spans);

/// JSON array of the spans: {"id","name","parent","start","end","self"}.
std::string spansJson(const std::vector<Span>& spans);

}  // namespace perfbench
