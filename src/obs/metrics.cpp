#include "obs/metrics.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace iop::obs {

namespace {

/// %g gives compact, locale-independent, round-trippable-enough values for
/// CSV; 12 significant digits keep byte counts exact into the terabytes.
std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.12g", v);
  return buf;
}

/// Prometheus metric name: `sweep.cell_seconds` -> `iop_sweep_cell_seconds`.
std::string promName(const std::string& name) {
  std::string out = "iop_";
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  return out;
}

}  // namespace

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)) {
  if (bounds_.empty()) {
    throw std::invalid_argument("histogram needs at least one bound");
  }
  if (!std::is_sorted(bounds_.begin(), bounds_.end())) {
    throw std::invalid_argument("histogram bounds must be ascending");
  }
  counts_.assign(bounds_.size() + 1, 0);
}

std::size_t Histogram::bucketIndex(double value) const noexcept {
  // First bound >= value: v == bound lands *in* that bucket ("le" bound).
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  return static_cast<std::size_t>(it - bounds_.begin());
}

void Histogram::observe(double value) noexcept {
  ++counts_[bucketIndex(value)];
  ++count_;
  sum_ += value;
  if (value < min_) min_ = value;
  if (value > max_) max_ = value;
}

void MetricsRegistry::checkFree(const std::string& name,
                                const char* wanted) const {
  const bool taken = (counters_.count(name) && wanted != std::string("c")) ||
                     (gauges_.count(name) && wanted != std::string("g")) ||
                     (histograms_.count(name) && wanted != std::string("h"));
  if (taken) {
    throw std::logic_error("metric '" + name +
                           "' already registered with another kind");
  }
}

Counter& MetricsRegistry::counter(const std::string& name) {
  checkFree(name, "c");
  return counters_[name];
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  checkFree(name, "g");
  return gauges_[name];
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::vector<double> bounds) {
  checkFree(name, "h");
  auto it = histograms_.find(name);
  if (it != histograms_.end()) return it->second;
  return histograms_.emplace(name, Histogram(std::move(bounds)))
      .first->second;
}

const Counter* MetricsRegistry::findCounter(const std::string& name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : &it->second;
}

const Gauge* MetricsRegistry::findGauge(const std::string& name) const {
  auto it = gauges_.find(name);
  return it == gauges_.end() ? nullptr : &it->second;
}

const Histogram* MetricsRegistry::findHistogram(
    const std::string& name) const {
  auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

std::string MetricsRegistry::renderCsv() const {
  std::ostringstream out;
  out << "metric,kind,field,value\n";
  for (const auto& [name, c] : counters_) {
    out << name << ",counter,value," << num(c.value()) << "\n";
    out << name << ",counter,events," << c.events() << "\n";
  }
  for (const auto& [name, g] : gauges_) {
    out << name << ",gauge,value," << num(g.value()) << "\n";
    if (g.max() >= g.min()) {  // touched at least once
      out << name << ",gauge,min," << num(g.min()) << "\n";
      out << name << ",gauge,max," << num(g.max()) << "\n";
    }
  }
  for (const auto& [name, h] : histograms_) {
    out << name << ",histogram,count," << h.count() << "\n";
    out << name << ",histogram,sum," << num(h.sum()) << "\n";
    if (h.count() > 0) {
      out << name << ",histogram,min," << num(h.min()) << "\n";
      out << name << ",histogram,max," << num(h.max()) << "\n";
    }
    for (std::size_t i = 0; i < h.bounds().size(); ++i) {
      out << name << ",histogram,le_" << num(h.bounds()[i]) << ","
          << h.bucketCounts()[i] << "\n";
    }
    out << name << ",histogram,le_inf,"
        << h.bucketCounts().back() << "\n";
  }
  return out.str();
}

void MetricsRegistry::saveCsv(const std::string& path) const {
  std::ofstream file(path);
  if (!file) {
    throw std::runtime_error("obs: cannot open metrics output " + path);
  }
  file << renderCsv();
}

std::string MetricsRegistry::renderSummary() const {
  std::ostringstream out;
  for (const auto& [name, c] : counters_) {
    out << "  " << name << " = " << num(c.value()) << " (" << c.events()
        << " events)\n";
  }
  for (const auto& [name, g] : gauges_) {
    out << "  " << name << " = " << num(g.value()) << "\n";
  }
  for (const auto& [name, h] : histograms_) {
    out << "  " << name << ": n=" << h.count();
    if (h.count() > 0) {
      out << " mean=" << num(h.mean()) << " min=" << num(h.min())
          << " max=" << num(h.max());
    }
    out << "\n";
  }
  return out.str();
}

std::string MetricsRegistry::renderProm() const {
  std::ostringstream out;
  for (const auto& [name, c] : counters_) {
    const std::string prom = promName(name) + "_total";
    out << "# TYPE " << prom << " counter\n";
    out << prom << " " << num(c.value()) << "\n";
  }
  for (const auto& [name, g] : gauges_) {
    const std::string prom = promName(name);
    out << "# TYPE " << prom << " gauge\n";
    out << prom << " " << num(g.value()) << "\n";
  }
  for (const auto& [name, h] : histograms_) {
    const std::string prom = promName(name);
    out << "# TYPE " << prom << " histogram\n";
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < h.bounds().size(); ++i) {
      cumulative += h.bucketCounts()[i];
      out << prom << "_bucket{le=\"" << num(h.bounds()[i]) << "\"} "
          << cumulative << "\n";
    }
    cumulative += h.bucketCounts().back();
    out << prom << "_bucket{le=\"+Inf\"} " << cumulative << "\n";
    out << prom << "_sum " << num(h.sum()) << "\n";
    out << prom << "_count " << h.count() << "\n";
  }
  return out.str();
}

std::vector<double> latencyBucketsSeconds() {
  return {1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0};
}

std::vector<double> depthBuckets() {
  return {0, 1, 2, 4, 8, 16, 32, 64, 128, 256};
}

}  // namespace iop::obs
