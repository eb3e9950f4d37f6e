// Two-run regression diffing: captures or iop-bench/1 documents.
//
// The verdict is the trend rule's (obs/trend.hpp) in its one-prior-point
// case: both runs go through SeriesSet as a two-point series per metric
// and are judged with twoRunOptions(thresholdPct), which flags exactly
// when |delta%| > thresholdPct.  This module keeps only what the rule
// cannot express:
//   * phase alignment — b's phases are renumbered onto a's ids first, by
//     id or by renumbering-tolerant similarity;
//   * phases present in one capture only, which count as regressions
//     (bench results present in one document only are reported but do
//     not);
//   * the *shape* of every shared queue-depth/latency histogram, measured
//     as the normalized L1 distance between bucket distributions.
// `regressions()` drives iop-diff's non-zero CI exit code.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "obs/benchjson.hpp"
#include "obs/capture.hpp"
#include "obs/trend.hpp"

namespace iop::obs {

/// How phases of the two captures are matched before comparison.
///   ById:         same phase id (the default; exact for unchanged models).
///   BySimilarity: renumbering-tolerant — phases are grouped by label and
///                 sequence-aligned within each group by weight similarity,
///                 so a model extraction that renumbers phases still diffs
///                 clean.
enum class AlignMode { ById, BySimilarity };

/// "id" | "similarity" (throws std::invalid_argument).
AlignMode parseAlignMode(const std::string& name);

/// Normalized L1 distance (0..2) beyond which a histogram's bucket
/// distribution counts as changed shape.
inline constexpr double kHistogramShapeThreshold = 0.25;

struct DiffOptions {
  /// Relative change in percent beyond which a metric counts as changed.
  double thresholdPct = 5.0;
  AlignMode align = AlignMode::ById;
};

struct DiffResult {
  std::string header;   ///< what was compared, first line(s) of render()
  /// Two-point series (a's value, then b's), judged by the trend rule.
  /// One-point series are metrics that only one run measured.
  TrendReport series;
  /// Phases (captures) or metrics (bench) present in one run only.
  std::vector<std::string> onlyInOne;
  bool onlyInOneIsRegression = false;  ///< true for captures
  /// Shared histograms whose shape changed: (metric, L1 distance).
  std::vector<std::pair<std::string, double>> changedShapes;

  std::size_t regressions() const noexcept;
  std::size_t findings() const noexcept;
  std::string render() const;
};

DiffResult diffCaptures(const RunCapture& a, const RunCapture& b,
                        const DiffOptions& options = {});

/// Results are matched by name; `options.align` does not apply.  The
/// default threshold is 10%: wall-clock benchmarks are noisier than
/// simulated captures.
DiffResult diffBench(const std::vector<BenchEntry>& a,
                     const std::vector<BenchEntry>& b,
                     const DiffOptions& options = {.thresholdPct = 10.0});

/// Phase matching between two captures (exposed for tests).  Each pair has
/// at least one side set; a nullptr side means the phase is unmatched.
/// Pairs appear in a-order, with b-only phases appended in b-order.
std::vector<std::pair<const CapturePhase*, const CapturePhase*>>
alignPhases(const RunCapture& a, const RunCapture& b, AlignMode mode);

/// Parse the `le_*` bucket rows of every histogram in a metrics CSV
/// (exposed for tests).  Returns metric -> ordered bucket counts.
std::vector<std::pair<std::string, std::vector<double>>>
parseHistogramBuckets(const std::string& metricsCsv);

}  // namespace iop::obs
