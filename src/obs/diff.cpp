#include "obs/diff.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <map>
#include <sstream>
#include <stdexcept>

namespace iop::obs {

namespace {

/// Normalized L1 distance between two bucket-count vectors (0 = identical
/// shape, 2 = disjoint support).
double l1Distance(const std::vector<double>& a, const std::vector<double>& b) {
  const std::size_t n = std::max(a.size(), b.size());
  double sumA = 0;
  double sumB = 0;
  for (double v : a) sumA += v;
  for (double v : b) sumB += v;
  if (sumA == 0 || sumB == 0) return sumA == sumB ? 0 : 2;
  double d = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double pa = i < a.size() ? a[i] / sumA : 0;
    const double pb = i < b.size() ? b[i] / sumB : 0;
    d += std::fabs(pa - pb);
  }
  return d;
}

/// Weight similarity in [0, 1]: 1 for identical weights, approaching 0 as
/// the weights diverge.
double weightSimilarity(const CapturePhase& x, const CapturePhase& y) {
  const double wa = static_cast<double>(x.weightBytes);
  const double wb = static_cast<double>(y.weightBytes);
  const double hi = std::max({wa, wb, 1.0});
  return 1.0 - std::fabs(wa - wb) / hi;
}

/// Order-preserving alignment of two same-label phase sequences: a classic
/// gap-allowed DP maximizing total weight similarity, with matches below
/// kMinSimilarity forbidden (those phases are better reported missing than
/// force-paired).  Group sizes are phase counts, so O(n*m) is fine.
constexpr double kMinSimilarity = 0.5;

std::vector<std::pair<const CapturePhase*, const CapturePhase*>>
alignGroup(const std::vector<const CapturePhase*>& as,
           const std::vector<const CapturePhase*>& bs) {
  const std::size_t n = as.size();
  const std::size_t m = bs.size();
  std::vector<std::vector<double>> score(n + 1,
                                         std::vector<double>(m + 1, 0));
  for (std::size_t i = 1; i <= n; ++i) {
    for (std::size_t j = 1; j <= m; ++j) {
      double best = std::max(score[i - 1][j], score[i][j - 1]);
      const double sim = weightSimilarity(*as[i - 1], *bs[j - 1]);
      if (sim >= kMinSimilarity) {
        best = std::max(best, score[i - 1][j - 1] + sim);
      }
      score[i][j] = best;
    }
  }
  std::vector<std::pair<const CapturePhase*, const CapturePhase*>> rev;
  std::size_t i = n;
  std::size_t j = m;
  while (i > 0 || j > 0) {
    if (i > 0 && j > 0) {
      const double sim = weightSimilarity(*as[i - 1], *bs[j - 1]);
      if (sim >= kMinSimilarity &&
          score[i][j] == score[i - 1][j - 1] + sim) {
        rev.emplace_back(as[i - 1], bs[j - 1]);
        --i;
        --j;
        continue;
      }
    }
    if (i > 0 && (j == 0 || score[i][j] == score[i - 1][j])) {
      rev.emplace_back(as[i - 1], nullptr);
      --i;
    } else {
      rev.emplace_back(nullptr, bs[j - 1]);
      --j;
    }
  }
  return {rev.rbegin(), rev.rend()};
}

}  // namespace

AlignMode parseAlignMode(const std::string& name) {
  if (name == "id") return AlignMode::ById;
  if (name == "similarity") return AlignMode::BySimilarity;
  throw std::invalid_argument("unknown align mode '" + name +
                              "' (use id or similarity)");
}

std::vector<std::pair<const CapturePhase*, const CapturePhase*>>
alignPhases(const RunCapture& a, const RunCapture& b, AlignMode mode) {
  std::vector<std::pair<const CapturePhase*, const CapturePhase*>> pairs;
  if (mode == AlignMode::ById) {
    std::map<int, const CapturePhase*> phasesB;
    for (const auto& p : b.phases) phasesB[p.id] = &p;
    std::map<int, const CapturePhase*> matchedB;
    for (const auto& pa : a.phases) {
      const auto it = phasesB.find(pa.id);
      if (it == phasesB.end()) {
        pairs.emplace_back(&pa, nullptr);
      } else {
        pairs.emplace_back(&pa, it->second);
        matchedB[pa.id] = it->second;
      }
    }
    for (const auto& pb : b.phases) {
      if (matchedB.count(pb.id) == 0) pairs.emplace_back(nullptr, &pb);
    }
    return pairs;
  }

  // BySimilarity: bucket both sides by label (keyed in a's order of first
  // appearance, b-only labels after), then align each bucket's sequences.
  std::vector<std::string> labelOrder;
  std::map<std::string, std::vector<const CapturePhase*>> groupA;
  std::map<std::string, std::vector<const CapturePhase*>> groupB;
  for (const auto& pa : a.phases) {
    if (groupA.count(pa.label) == 0 && groupB.count(pa.label) == 0) {
      labelOrder.push_back(pa.label);
    }
    groupA[pa.label].push_back(&pa);
  }
  for (const auto& pb : b.phases) {
    if (groupA.count(pb.label) == 0 && groupB.count(pb.label) == 0) {
      labelOrder.push_back(pb.label);
    }
    groupB[pb.label].push_back(&pb);
  }
  std::vector<std::pair<const CapturePhase*, const CapturePhase*>> bOnly;
  for (const auto& label : labelOrder) {
    for (auto& pair : alignGroup(groupA[label], groupB[label])) {
      (pair.first != nullptr ? pairs : bOnly).push_back(pair);
    }
  }
  pairs.insert(pairs.end(), bOnly.begin(), bOnly.end());
  return pairs;
}

std::vector<std::pair<std::string, std::vector<double>>>
parseHistogramBuckets(const std::string& metricsCsv) {
  std::vector<std::pair<std::string, std::vector<double>>> out;
  std::istringstream in(metricsCsv);
  std::string line;
  while (std::getline(in, line)) {
    // metric,kind,field,value — histogram bucket rows have field le_*.
    const auto c1 = line.find(',');
    if (c1 == std::string::npos) continue;
    const auto c2 = line.find(',', c1 + 1);
    if (c2 == std::string::npos) continue;
    const auto c3 = line.find(',', c2 + 1);
    if (c3 == std::string::npos) continue;
    if (line.compare(c1 + 1, c2 - c1 - 1, "histogram") != 0) continue;
    if (line.compare(c2 + 1, 3, "le_") != 0) continue;
    const std::string name = line.substr(0, c1);
    const double value = std::strtod(line.c_str() + c3 + 1, nullptr);
    if (out.empty() || out.back().first != name) {
      out.emplace_back(name, std::vector<double>{});
    }
    out.back().second.push_back(value);
  }
  return out;
}

std::size_t DiffResult::regressions() const noexcept {
  return series.regressions() +
         (onlyInOneIsRegression ? onlyInOne.size() : 0) +
         changedShapes.size();
}

std::size_t DiffResult::findings() const noexcept {
  return series.flaggedSeries() + onlyInOne.size() + changedShapes.size();
}

std::string DiffResult::render() const {
  std::ostringstream out;  // default stream format is %.6g
  out << header << series.renderChanges();
  for (const auto& what : onlyInOne) {
    out << (onlyInOneIsRegression ? "  REGRESSION  " : "  change      ")
        << what << ": present in only one run\n";
  }
  for (const auto& [metric, distance] : changedShapes) {
    out << "  REGRESSION  histogram " << metric << " shape: L1 distance "
        << distance << " (changed)\n";
  }
  if (findings() == 0) {
    out << "  no changes beyond threshold (" << series.options.relFloorPct
        << "%)\n";
  }
  out << "  " << regressions() << " regression(s), " << findings()
      << " finding(s)\n";
  return out.str();
}

DiffResult diffCaptures(const RunCapture& a, const RunCapture& b,
                        const DiffOptions& options) {
  const TrendOptions rule = twoRunOptions(options.thresholdPct);
  DiffResult result;
  result.onlyInOneIsRegression = true;

  // b under a's identity and phase ids, so every matched metric lands in
  // the same series as a's; b-only phases get fresh ids past a's and stay
  // one-point series (reported below as present in one run only).
  RunCapture onA;
  onA.app = a.app;
  onA.np = a.np;
  onA.config = a.config;
  onA.makespan = b.makespan;
  int freshId = 0;
  for (const auto& p : a.phases) freshId = std::max(freshId, p.id + 1);
  for (const auto& [pa, pb] : alignPhases(a, b, options.align)) {
    if (pa == nullptr || pb == nullptr) {
      const CapturePhase& only = pa != nullptr ? *pa : *pb;
      result.onlyInOne.push_back("phase " + std::to_string(only.id) + " [" +
                                 only.label + "]");
      if (pb == nullptr) continue;
    }
    CapturePhase p = *pb;
    if (pa != nullptr) {
      p.id = pa->id;
      p.label = pa->label;
    } else {
      p.id = freshId++;
    }
    onA.phases.push_back(std::move(p));
  }
  SeriesSet set;
  set.addCapture(a, 0, "before");
  set.addCapture(onA, 1, "after");
  result.series = std::move(set).judge(rule);

  std::ostringstream header;
  header << "diff: " << a.app << " np=" << a.np << " on " << a.config
         << "  vs  " << b.app << " np=" << b.np << " on " << b.config
         << "\n  makespan " << a.makespan << " s -> " << b.makespan
         << " s\n";
  result.header = header.str();

  if (!a.metricsCsv.empty() && !b.metricsCsv.empty()) {
    const auto parsedB = parseHistogramBuckets(b.metricsCsv);
    std::map<std::string, const std::vector<double>*> histB;
    for (const auto& [name, buckets] : parsedB) histB[name] = &buckets;
    for (const auto& [name, bucketsA] :
         parseHistogramBuckets(a.metricsCsv)) {
      const auto it = histB.find(name);
      if (it == histB.end()) continue;
      // A shape change is always worth a look in CI: it is a regression.
      const double d = l1Distance(bucketsA, *it->second);
      if (d > kHistogramShapeThreshold) {
        result.changedShapes.emplace_back(name, d);
      }
    }
  }
  return result;
}

DiffResult diffBench(const std::vector<BenchEntry>& a,
                     const std::vector<BenchEntry>& b,
                     const DiffOptions& options) {
  const TrendOptions rule = twoRunOptions(options.thresholdPct);
  SeriesSet set;
  set.addBench(a, "bench", 0, "before");
  set.addBench(b, "bench", 1, "after");
  DiffResult result;
  result.series = std::move(set).judge(rule);
  std::size_t shared = 0;
  for (const auto& s : result.series.series) {
    if (s.points.size() == 1) {
      result.onlyInOne.push_back(s.metric);
    } else {
      ++shared;
    }
  }
  result.header =
      "bench diff: " + std::to_string(shared) + " metric(s) in both runs\n";
  return result;
}

}  // namespace iop::obs
