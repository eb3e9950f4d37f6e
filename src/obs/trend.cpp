#include "obs/trend.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "obs/archive.hpp"
#include "obs/capture.hpp"

namespace iop::obs {

namespace {

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

/// Smallest scale the rule divides by: deltas at or below it (1 ns of a
/// time metric) never flag, whatever the relative floor.
constexpr double kAbsoluteFloor = 1e-9;

/// Throws std::invalid_argument naming `--option` unless `value` is
/// finite and > 0 (or >= 0 with `allowZero`).
void requireFinite(const char* option, double value, bool allowZero) {
  if (std::isfinite(value) && (value > 0 || (allowZero && value == 0))) {
    return;
  }
  throw std::invalid_argument(std::string("--") + option +
                              " must be finite and " +
                              (allowZero ? ">= 0" : "> 0") + ", got " +
                              num(value));
}

/// Scale used to turn a raw delta into robust sigma units: consistent
/// MAD estimator with a relative floor so deterministic histories
/// (MAD = 0) still measure change sensibly.
double robustScale(double mad, double median, const TrendOptions& options) {
  const double consistent = 1.4826 * mad;
  const double floor = options.relFloorPct / 100.0 * std::fabs(median);
  return std::max({consistent, floor, kAbsoluteFloor});
}

void judgeSeries(TrendSeries& s, const TrendOptions& options) {
  if (s.points.size() < 2) return;
  std::vector<double> history;
  history.reserve(s.points.size() - 1);
  for (std::size_t i = 0; i + 1 < s.points.size(); ++i) {
    history.push_back(s.points[i].value);
  }
  s.baselineMedian = medianOf(history);
  s.baselineMad = madOf(history, s.baselineMedian);
  const double scale = robustScale(s.baselineMad, s.baselineMedian, options);
  s.deviation = (s.points.back().value - s.baselineMedian) / scale;
  if (history.size() < static_cast<std::size_t>(options.minHistory)) return;
  s.flagged = std::fabs(s.deviation) > options.madThreshold;
  const bool worse = s.lowerIsBetter ? s.deviation > 0 : s.deviation < 0;
  s.regression = s.flagged && worse;
}

std::string pct(double deltaPct) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%+.1f%%", deltaPct);
  return buf;
}

std::string htmlEscape(const std::string& raw) {
  std::string out;
  out.reserve(raw.size());
  for (const char c : raw) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      default: out += c;
    }
  }
  return out;
}

}  // namespace

double medianOf(std::vector<double> values) {
  if (values.empty()) return 0;
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  const double lower =
      *std::max_element(values.begin(), values.begin() + mid);
  return (lower + upper) / 2.0;
}

double madOf(const std::vector<double>& values, double median) {
  if (values.empty()) return 0;
  std::vector<double> deviations;
  deviations.reserve(values.size());
  for (const double v : values) deviations.push_back(std::fabs(v - median));
  return medianOf(std::move(deviations));
}

std::string sparkline(const std::vector<double>& values) {
  static const char* kBlocks[] = {"▁", "▂", "▃", "▄",
                                  "▅", "▆", "▇", "█"};
  if (values.empty()) return "";
  const auto [minIt, maxIt] =
      std::minmax_element(values.begin(), values.end());
  const double lo = *minIt, hi = *maxIt;
  std::string out;
  for (const double v : values) {
    int level = 3;  // flat series render mid-height
    if (hi > lo) {
      level = static_cast<int>((v - lo) / (hi - lo) * 7.0 + 0.5);
      level = std::clamp(level, 0, 7);
    }
    out += kBlocks[level];
  }
  return out;
}

void TrendOptions::validate() const {
  requireFinite("mad-threshold", madThreshold, false);
  requireFinite("rel-floor-pct", relFloorPct, true);
  if (minHistory < 0) {
    throw std::invalid_argument("--min-history must be >= 0, got " +
                                std::to_string(minHistory));
  }
}

TrendOptions twoRunOptions(double thresholdPct) {
  requireFinite("threshold-pct", thresholdPct, false);
  TrendOptions options;
  options.madThreshold = 1;
  options.relFloorPct = thresholdPct;
  options.minHistory = 1;
  return options;
}

double TrendSeries::deltaPct() const noexcept {
  if (baselineMedian == 0) return latest() == 0 ? 0 : 100.0;
  return 100.0 * (latest() - baselineMedian) / baselineMedian;
}

std::string TrendSeries::title() const {
  if (kind == "bench") return app + " " + metric;
  return app + "/" + config + "/np" + std::to_string(np) + " " + metric;
}

std::size_t TrendReport::regressions() const noexcept {
  std::size_t n = 0;
  for (const auto& s : series) {
    if (s.regression) ++n;
  }
  return n;
}

std::size_t TrendReport::flaggedSeries() const noexcept {
  std::size_t n = 0;
  for (const auto& s : series) {
    if (s.flagged) ++n;
  }
  return n;
}

TrendSeries& SeriesSet::at(const std::string& kind, const std::string& app,
                           const std::string& config, int np, int rank,
                           int phaseId, const std::string& metric,
                           bool lowerIsBetter) {
  auto& s = series_[{app, config, np, rank, phaseId, metric}];
  if (s.metric.empty()) {
    s.kind = kind;
    s.app = app;
    s.config = config;
    s.np = np;
    s.metric = metric;
    s.lowerIsBetter = lowerIsBetter;
  }
  return s;
}

void SeriesSet::addCapture(const RunCapture& cap, std::uint64_t seq,
                           const std::string& label) {
  const auto add = [&](int rank, int phaseId, const std::string& metric,
                       bool lowerIsBetter, double value) {
    at("capture", cap.app, cap.config, cap.np, rank, phaseId, metric,
       lowerIsBetter)
        .points.push_back(TrendPoint{seq, label, value});
  };
  add(0, 0, "makespan", true, cap.makespan);
  double ioSum = 0;
  for (const auto& p : cap.phases) ioSum += p.ioSeconds;
  add(1, 0, "eq12 residual", true, cap.makespan - ioSum);
  for (const auto& p : cap.phases) {
    const std::string phase =
        "phase " + std::to_string(p.id) + " [" + p.label + "]";
    add(2, p.id, phase + " time", true, p.ioSeconds);
    if (p.bandwidth > 0) add(3, p.id, phase + " bandwidth", false, p.bandwidth);
  }
}

void SeriesSet::addBench(const std::vector<BenchEntry>& results,
                         const std::string& name, std::uint64_t seq,
                         const std::string& label) {
  for (const auto& result : results) {
    if (result.nsPerOp > 0) {
      at("bench", name, "bench", 0, 4, 0, result.name + " ns/op", true)
          .points.push_back(TrendPoint{seq, label, result.nsPerOp});
    }
    if (result.bytesPerSecond > 0) {
      at("bench", name, "bench", 0, 5, 0, result.name + " bytes/s", false)
          .points.push_back(TrendPoint{seq, label, result.bytesPerSecond});
    }
  }
}

TrendReport SeriesSet::judge(const TrendOptions& options) && {
  options.validate();
  TrendReport report;
  report.options = options;
  for (auto& [key, s] : series_) {
    if (!options.metricFilter.empty() &&
        s.title().find(options.metricFilter) == std::string::npos) {
      continue;
    }
    judgeSeries(s, options);
    report.series.push_back(std::move(s));
  }
  return report;
}

TrendReport analyzeTrends(const Archive& archive,
                          const TrendOptions& options) {
  SeriesSet set;
  for (const auto& entry : archive.list()) {
    if (entry.kind == "capture") {
      set.addCapture(archive.loadCapture(entry), entry.seq, entry.label);
    } else {
      set.addBench(archive.loadBench(entry), entry.app, entry.seq,
                   entry.label);
    }
  }
  return std::move(set).judge(options);
}

std::string TrendReport::renderText() const {
  std::ostringstream out;
  out << "trend report: " << series.size() << " series, threshold "
      << num(options.madThreshold) << " sigma (rel floor "
      << num(options.relFloorPct) << "%, min history "
      << options.minHistory << ")\n";
  for (const auto& s : series) {
    std::vector<double> values;
    values.reserve(s.points.size());
    for (const auto& p : s.points) values.push_back(p.value);
    out << "  " << s.title() << ": " << sparkline(values) << " n="
        << s.points.size() << " last=" << num(s.latest());
    if (s.points.size() >= 2) {
      out << " median=" << num(s.baselineMedian) << " ("
          << pct(s.deltaPct()) << ", "
          << num(s.deviation) << " sigma)";
    }
    if (s.regression) {
      out << " REGRESSION";
    } else if (s.flagged) {
      out << " improved";
    }
    out << "\n";
  }
  out << "  " << regressions() << " regression(s), " << flaggedSeries()
      << " flagged of " << series.size() << " series\n";
  return out.str();
}

std::string TrendReport::renderCheck() const {
  std::ostringstream out;
  for (const auto& s : series) {
    if (!s.regression) continue;
    out << "REGRESSION " << s.title() << ": " << num(s.latest()) << " vs "
        << "median " << num(s.baselineMedian) << " ("
        << pct(s.deltaPct()) << ", "
        << num(s.deviation) << " sigma over " << (s.points.size() - 1)
        << " prior runs, label " << s.points.back().label << ")\n";
  }
  return out.str();
}

std::string TrendReport::renderChanges() const {
  std::ostringstream out;
  for (const auto& s : series) {
    if (!s.flagged) continue;
    out << (s.regression ? "  REGRESSION  " : "  change      ") << s.metric
        << ": " << num(s.baselineMedian) << " -> " << num(s.latest())
        << " (" << pct(s.deltaPct()) << (s.regression ? ", regression)" : ")")
        << "\n";
  }
  return out.str();
}

std::string TrendReport::renderHtml() const {
  std::ostringstream out;
  out << "<!doctype html>\n<html><head><meta charset=\"utf-8\">\n"
      << "<title>iop-trend report</title>\n<style>\n"
      << "body{font:14px/1.4 system-ui,sans-serif;margin:2em;"
      << "color:#1a1a1a}\n"
      << "table{border-collapse:collapse;width:100%}\n"
      << "th,td{text-align:left;padding:4px 10px;"
      << "border-bottom:1px solid #ddd;white-space:nowrap}\n"
      << "td.num{text-align:right;font-variant-numeric:tabular-nums}\n"
      << ".bad{color:#b00020;font-weight:600}\n"
      << ".good{color:#1e7d32}\n"
      << "svg{vertical-align:middle}\n"
      << "</style></head><body>\n"
      << "<h1>iop-trend report</h1>\n"
      << "<p>" << series.size() << " series &middot; threshold "
      << num(options.madThreshold) << " sigma &middot; rel floor "
      << num(options.relFloorPct) << "% &middot; min history "
      << options.minHistory << " &middot; " << regressions()
      << " regression(s)</p>\n"
      << "<table>\n<tr><th>series</th><th>trend</th><th>n</th>"
      << "<th>last</th><th>median</th><th>&Delta;</th><th>sigma</th>"
      << "<th>verdict</th></tr>\n";
  for (const auto& s : series) {
    std::vector<double> values;
    values.reserve(s.points.size());
    for (const auto& p : s.points) values.push_back(p.value);
    // Inline SVG polyline, min-max normalized; the last point gets a dot.
    const int w = 120, h = 24, pad = 2;
    const auto [minIt, maxIt] =
        std::minmax_element(values.begin(), values.end());
    const double lo = *minIt, hi = *maxIt;
    std::ostringstream pts;
    double lastX = pad, lastY = h / 2.0;
    for (std::size_t i = 0; i < values.size(); ++i) {
      const double x =
          values.size() == 1
              ? pad
              : pad + static_cast<double>(i) * (w - 2 * pad) /
                          static_cast<double>(values.size() - 1);
      const double y =
          hi > lo ? h - pad - (values[i] - lo) / (hi - lo) * (h - 2 * pad)
                  : h / 2.0;
      if (i > 0) pts << " ";
      pts << num(x) << "," << num(y);
      lastX = x;
      lastY = y;
    }
    const char* stroke = s.regression ? "#b00020"
                         : s.flagged  ? "#1e7d32"
                                      : "#4a6fa5";
    out << "<tr><td>" << htmlEscape(s.title()) << "</td><td>"
        << "<svg width=\"" << w << "\" height=\"" << h << "\">"
        << "<polyline fill=\"none\" stroke=\"" << stroke
        << "\" stroke-width=\"1.5\" points=\"" << pts.str() << "\"/>"
        << "<circle cx=\"" << num(lastX) << "\" cy=\"" << num(lastY)
        << "\" r=\"2.5\" fill=\"" << stroke << "\"/></svg></td>"
        << "<td class=\"num\">" << s.points.size() << "</td>"
        << "<td class=\"num\">" << num(s.latest()) << "</td>";
    if (s.points.size() >= 2) {
      out << "<td class=\"num\">" << num(s.baselineMedian) << "</td>"
          << "<td class=\"num\">"
          << pct(s.deltaPct()) << "</td>"
          << "<td class=\"num\">" << num(s.deviation) << "</td>";
    } else {
      out << "<td class=\"num\"></td><td class=\"num\"></td>"
          << "<td class=\"num\"></td>";
    }
    out << "<td>"
        << (s.regression ? "<span class=\"bad\">REGRESSION</span>"
            : s.flagged  ? "<span class=\"good\">improved</span>"
                         : "ok")
        << "</td></tr>\n";
  }
  out << "</table>\n</body></html>\n";
  return out.str();
}

}  // namespace iop::obs
