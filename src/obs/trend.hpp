// Trend engine: per-metric time series across a capture archive, with
// robust baselines and change-point flagging.  This is the one
// change-detection rule of the repository: iop-diff's two-run comparison
// is its one-prior-point case (obs/diff.hpp builds two-point series and
// judges them here with twoRunOptions()).
//
// SeriesSet is the only code that decides which metrics a capture or an
// iop-bench/1 document contributes and which direction counts as worse.
// For every (app, config, np) capture it extracts
//   * makespan,
//   * per-phase Time_io and bandwidth,
//   * the eq. 1-2 residual (makespan minus the sum of per-phase measured
//     I/O times — the compute/startup/unattributed remainder, so a
//     regression that hides outside the I/O phases still surfaces),
// and for every bench snapshot, per-result ns/op and bytes/s.
//
// The change-point rule (docs/OBSERVABILITY.md): the newest point is
// compared against the median of all prior points; the deviation is
// measured in robust sigma units, scale = max(1.4826 * MAD,
// relFloorPct% of |median|, 1e-9).  A deterministic history
// (MAD = 0 — the common case for simulated metrics) falls back to the
// relative floor, so a 20% makespan jump over five byte-identical runs is
// ~20 sigma.  A series flags only after `minHistory` prior points exist;
// a flagged move in the bad direction (time up, bandwidth down) is a
// regression, which drives iop-trend check's and iop-diff's non-zero CI
// exit codes.
//
// Everything here is deterministic: series and points are emitted in a
// canonical order, so two runs over the same archive render identical
// reports.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "obs/benchjson.hpp"

namespace iop::obs {

class Archive;
struct RunCapture;

struct TrendOptions {
  /// |deviation| in robust sigma units beyond which the newest point is
  /// a change-point.
  double madThreshold = 4.0;
  /// Scale floor as a percentage of |baseline median|: protects against
  /// MAD = 0 (deterministic histories) and keeps microscopic relative
  /// moves from flagging.
  double relFloorPct = 1.0;
  /// Prior points required before a series may flag at all.  Signed so
  /// that a negative command-line value is rejected, not wrapped to
  /// "never enough history".
  std::int64_t minHistory = 3;
  /// Substring filter on series metric names (empty = all).
  std::string metricFilter;

  /// Reject values that would switch the rule off (a NaN threshold never
  /// flags): madThreshold finite and > 0, relFloorPct finite and >= 0,
  /// minHistory >= 0.  Throws std::invalid_argument naming the iop-trend
  /// option.  Every judge() call runs it.
  void validate() const;
};

/// The options under which the rule is a two-run comparison: one prior
/// point (so MAD = 0 and the scale is thresholdPct% of the first value),
/// madThreshold 1 — i.e. flag exactly when |delta%| > thresholdPct.
/// Throws std::invalid_argument naming --threshold-pct unless
/// thresholdPct is finite and > 0.
TrendOptions twoRunOptions(double thresholdPct);

struct TrendPoint {
  std::uint64_t seq = 0;   ///< archive sequence number
  std::string label;       ///< commit / tag the point was archived under
  double value = 0;
};

struct TrendSeries {
  std::string kind;     ///< "capture" | "bench"
  std::string app;      ///< bench: snapshot name
  std::string config;   ///< bench: "bench"
  int np = 0;
  std::string metric;   ///< "makespan", "phase 3 [W f0] time", "X ns/op"...
  bool lowerIsBetter = true;
  std::vector<TrendPoint> points;  ///< seq ascending

  // Computed against all points but the newest:
  double baselineMedian = 0;
  double baselineMad = 0;
  double deviation = 0;    ///< newest point, robust sigma units, signed
  bool flagged = false;    ///< |deviation| > madThreshold (and history ok)
  bool regression = false; ///< flagged in the bad direction

  double latest() const noexcept {
    return points.empty() ? 0 : points.back().value;
  }
  /// Signed change of the newest point against the baseline median, in
  /// percent.
  double deltaPct() const noexcept;
  std::string title() const;  ///< "app/config/np4 metric"
};

struct TrendReport {
  TrendOptions options;
  std::vector<TrendSeries> series;  ///< canonical order, deterministic

  std::size_t regressions() const noexcept;
  std::size_t flaggedSeries() const noexcept;

  /// Text report: one line per series with a block-character sparkline,
  /// baseline stats and the change-point verdict.
  std::string renderText() const;
  /// Single-file HTML report with inline SVG sparklines (no external
  /// assets), for sharing a trend snapshot.
  std::string renderHtml() const;
  /// Regressions only, one line each — what `iop-trend check` prints.
  std::string renderCheck() const;
  /// Flagged series only, one line each as "metric: median -> newest
  /// (delta%)" — the two-run view iop-diff prints.
  std::string renderChanges() const;
};

/// Series under construction, keyed in canonical report order: captures
/// grouped by (app, config, np) with makespan first, then the residual,
/// then phase times and bandwidths by id; bench snapshots by (name,
/// result, field).
class SeriesSet {
 public:
  /// One point per metric of the capture, under its own app/config/np:
  /// makespan, eq12 residual and per-phase time (lower is better), and
  /// per-phase bandwidth (higher is better; 0 = not measured, skipped).
  void addCapture(const RunCapture& capture, std::uint64_t seq,
                  const std::string& label);
  /// One point per measured (> 0) ns/op (lower is better) and bytes/s
  /// (higher is better) of each result, under snapshot `name`.
  void addBench(const std::vector<BenchEntry>& results,
                const std::string& name, std::uint64_t seq,
                const std::string& label);

  /// Validate `options`, then judge every series that matches its metric
  /// filter.
  TrendReport judge(const TrendOptions& options) &&;

 private:
  TrendSeries& at(const std::string& kind, const std::string& app,
                  const std::string& config, int np, int rank, int phaseId,
                  const std::string& metric, bool lowerIsBetter);

  std::map<std::tuple<std::string, std::string, int, int, int, std::string>,
           TrendSeries>
      series_;
};

/// Extract and analyze every series of the archive.  Series order and
/// content are a pure function of the archive's manifest + objects.
TrendReport analyzeTrends(const Archive& archive,
                          const TrendOptions& options = {});

/// Robust statistics (exposed for tests).
double medianOf(std::vector<double> values);
double madOf(const std::vector<double>& values, double median);

/// Block-character sparkline of `values` (exposed for tests).
std::string sparkline(const std::vector<double>& values);

}  // namespace iop::obs
