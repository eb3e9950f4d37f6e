// Named metrics: counters, gauges, and fixed-bucket histograms.
//
// The registry owns its instruments at stable addresses.  The by-name
// getters (a map lookup plus a kind check) are for resolving: every
// simulation seam calls one at an instrument's first use and keeps the
// returned pointer in its obs::HubCache (hub.hpp), so an event costs a
// pointer dereference plus an add.  The cold callers — the sweep
// executor's end-of-run totals, the campaign telemetry — look up by name.
// Rendering iterates a name-ordered map, so the CSV output of a
// deterministic simulation is byte-identical across same-seed runs — the
// property the obs tests pin.
//
// Histogram bucket semantics are Prometheus-style cumulative "le" bounds
// made non-cumulative: a value v lands in the first bucket whose upper
// bound satisfies v <= bound; values above the last bound land in the
// overflow bucket (+Inf).
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

namespace iop::obs {

class Counter {
 public:
  void add(double delta = 1.0) noexcept {
    value_ += delta;
    ++events_;
  }
  double value() const noexcept { return value_; }
  std::uint64_t events() const noexcept { return events_; }

 private:
  double value_ = 0;
  std::uint64_t events_ = 0;
};

class Gauge {
 public:
  void set(double value) noexcept {
    value_ = value;
    if (value > max_) max_ = value;
    if (value < min_) min_ = value;
  }
  /// Move the gauge by `delta` (an up/down count such as busy workers).
  void add(double delta) noexcept { set(value_ + delta); }
  double value() const noexcept { return value_; }
  double max() const noexcept { return max_; }
  double min() const noexcept { return min_; }
  /// True once set() has been called at least once.
  bool touched() const noexcept { return max_ >= min_; }

 private:
  double value_ = 0;
  double max_ = -std::numeric_limits<double>::infinity();
  double min_ = std::numeric_limits<double>::infinity();
};

class Histogram {
 public:
  /// `bounds` are ascending bucket upper bounds; an implicit +Inf bucket
  /// catches the rest.
  explicit Histogram(std::vector<double> bounds);

  void observe(double value) noexcept;

  std::uint64_t count() const noexcept { return count_; }
  double sum() const noexcept { return sum_; }
  double min() const noexcept { return min_; }
  double max() const noexcept { return max_; }
  double mean() const noexcept {
    return count_ == 0 ? 0 : sum_ / static_cast<double>(count_);
  }
  const std::vector<double>& bounds() const noexcept { return bounds_; }
  /// Per-bucket counts; size() == bounds().size() + 1 (last is overflow).
  const std::vector<std::uint64_t>& bucketCounts() const noexcept {
    return counts_;
  }
  /// Index of the bucket a value would land in.
  std::size_t bucketIndex(double value) const noexcept;

 private:
  std::vector<double> bounds_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t count_ = 0;
  double sum_ = 0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

class MetricsRegistry {
 public:
  /// Get-or-create by name.  A name may hold only one instrument kind;
  /// re-requesting with a different kind throws std::logic_error.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// For an existing histogram the bounds argument is ignored.
  Histogram& histogram(const std::string& name, std::vector<double> bounds);

  const Counter* findCounter(const std::string& name) const;
  const Gauge* findGauge(const std::string& name) const;
  const Histogram* findHistogram(const std::string& name) const;

  std::size_t size() const noexcept {
    return counters_.size() + gauges_.size() + histograms_.size();
  }

  /// Deterministic CSV: `metric,kind,field,value` rows, name-ordered.
  std::string renderCsv() const;
  void saveCsv(const std::string& path) const;

  /// Human-readable summary table for tool output.
  std::string renderSummary() const;

  /// Prometheus text exposition (version 0.0.4): counters, then gauges,
  /// then histograms, each name-ordered.  Names are mangled
  /// `sweep.cell_seconds` -> `iop_sweep_cell_seconds`, counters get the
  /// conventional `_total` suffix and histogram buckets are cumulative
  /// with an implicit `+Inf`.  Deterministic for a given state.
  std::string renderProm() const;

 private:
  void checkFree(const std::string& name, const char* wanted) const;

  // node-based maps: instrument addresses are stable across inserts.
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
};

/// Default bucket bounds for second-valued latency histograms (1 us .. 100 s,
/// roughly logarithmic).
std::vector<double> latencyBucketsSeconds();

/// Default bucket bounds for queue-depth style small-integer histograms.
std::vector<double> depthBuckets();

}  // namespace iop::obs
