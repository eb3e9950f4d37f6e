// Longitudinal observability: capture format v2 (columnar,
// block-compressed, checksummed), the content-addressed capture archive,
// and the trend engine's median/MAD change-point rule — including its
// one-prior-point case, the two-run iop-diff comparison.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <limits>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "obs/archive.hpp"
#include "obs/benchjson.hpp"
#include "obs/capture.hpp"
#include "obs/diff.hpp"
#include "obs/trend.hpp"

#include "capture_fixture.hpp"

namespace {

using namespace iop;

class TempDir {
 public:
  explicit TempDir(const std::string& name)
      : path_(std::filesystem::temp_directory_path() /
              ("iop_trend_test_" + name)) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~TempDir() { std::filesystem::remove_all(path_); }
  const std::filesystem::path& path() const { return path_; }

 private:
  std::filesystem::path path_;
};

/// A capture shaped like a real run: many same-family phases whose ids
/// step by one (RLE + delta friendly), histogram-heavy metrics CSV
/// (front-coding friendly), and awkward doubles that must round-trip
/// bit-exactly.
obs::RunCapture realisticCapture(double makespan = 261.875,
                                 double slowdown = 1.0) {
  obs::RunCapture cap;
  cap.app = "btio";
  cap.np = 4;
  cap.config = "Configuration A";
  cap.makespan = makespan * slowdown;
  for (int i = 0; i < 40; ++i) {
    obs::CapturePhase p;
    p.id = i + 1;
    p.familyId = i == 39 ? 2 : 1;
    p.weightBytes = 419430400;
    p.ioSeconds = (1.703 + 0.001 * (i % 3)) * slowdown;
    p.bandwidth = static_cast<double>(p.weightBytes) / p.ioSeconds;
    p.label = i == 39 ? "R f1" : "W f1";
    cap.phases.push_back(std::move(p));
  }
  std::ostringstream csv;
  csv << "metric,kind,field,value\n";
  for (const char* dev : {"disk.0", "disk.1", "disk.2", "disk.3"}) {
    for (const char* le :
         {"0.001", "0.01", "0.1", "1", "10", "100", "inf"}) {
      csv << "engine." << dev << ".service_seconds,histogram,le_" << le
          << "," << (le[0] == 'i' ? 4096 : 117) << "\n";
    }
    csv << "engine." << dev << ".queue_depth,gauge,value,3\n";
  }
  cap.metricsCsv = csv.str();
  return cap;
}

void expectSameCapture(const obs::RunCapture& a, const obs::RunCapture& b) {
  EXPECT_EQ(a.app, b.app);
  EXPECT_EQ(a.np, b.np);
  EXPECT_EQ(a.config, b.config);
  // Bit-exact doubles: iop-diff on a v1 capture vs its v2 re-encoding
  // must see literally identical values.
  EXPECT_EQ(a.makespan, b.makespan);
  ASSERT_EQ(a.phases.size(), b.phases.size());
  for (std::size_t i = 0; i < a.phases.size(); ++i) {
    EXPECT_EQ(a.phases[i].id, b.phases[i].id);
    EXPECT_EQ(a.phases[i].familyId, b.phases[i].familyId);
    EXPECT_EQ(a.phases[i].weightBytes, b.phases[i].weightBytes);
    EXPECT_EQ(a.phases[i].ioSeconds, b.phases[i].ioSeconds);
    EXPECT_EQ(a.phases[i].bandwidth, b.phases[i].bandwidth);
    EXPECT_EQ(a.phases[i].label, b.phases[i].label);
  }
  EXPECT_EQ(a.metricsCsv, b.metricsCsv);
}

// --- capture format v2 --------------------------------------------------

TEST(CaptureV2, RoundTripsSemanticStateExactly) {
  const auto cap = realisticCapture();
  const auto back = obs::RunCapture::parse(cap.serialize(obs::CaptureFormat::V2));
  expectSameCapture(cap, back);
}

TEST(CaptureV2, RoundTripsAwkwardValues) {
  obs::RunCapture cap;
  cap.app = "app with \"quotes\" and, commas";
  cap.np = 1;
  cap.config = "";
  cap.makespan = 0.1 + 0.2;  // not exactly representable
  obs::CapturePhase p;
  p.id = -3;                 // negative ids survive zigzag
  p.familyId = 1 << 20;
  p.weightBytes = 0;
  p.ioSeconds = 1e-300;
  p.bandwidth = 9.87654321e18;
  p.label = "label\twith\ttabs";
  cap.phases.push_back(p);
  cap.metricsCsv = "no trailing newline";
  const auto back =
      obs::RunCapture::parse(cap.serialize(obs::CaptureFormat::V2));
  expectSameCapture(cap, back);
}

TEST(CaptureV2, EmptyCaptureRoundTrips) {
  obs::RunCapture cap;
  cap.app = "x";
  cap.np = 0;
  cap.config = "c";
  cap.makespan = 0;
  const auto back =
      obs::RunCapture::parse(cap.serialize(obs::CaptureFormat::V2));
  expectSameCapture(cap, back);
}

TEST(CaptureV2, ParseSniffsBothFormats) {
  // v1 is read, never written: the literal text stands in for a capture
  // an older build left in a store or archive.
  const std::string v1 = fixture::kSampleCaptureV1;
  EXPECT_EQ(v1.rfind("iop-capture v1\n", 0), 0u);
  const auto fromV1 = obs::RunCapture::parse(v1);
  expectSameCapture(fixture::sampleCapture(), fromV1);
  const std::string v2 = fromV1.serialize(obs::CaptureFormat::V2);
  EXPECT_EQ(v2.rfind("iop-capture v2\n", 0), 0u);
  expectSameCapture(fromV1, obs::RunCapture::parse(v2));
}

TEST(CaptureV2, LoadSniffsSavedFiles) {
  TempDir dir("sniff");
  const std::string v1Path = (dir.path() / "a.cap").string();
  const std::string v2Path = (dir.path() / "a.capv2").string();
  std::ofstream(v1Path, std::ios::binary) << fixture::kSampleCaptureV1;
  const auto fromV1 = obs::RunCapture::load(v1Path);
  fromV1.save(v2Path);
  expectSameCapture(fromV1, obs::RunCapture::load(v2Path));
}

TEST(CaptureV2, DiffSeesV1AndV2EncodingsAsIdentical) {
  const auto v1 = obs::RunCapture::parse(fixture::kSampleCaptureV1);
  const auto v2 = obs::RunCapture::parse(
      fixture::sampleCapture().serialize(obs::CaptureFormat::V2));
  const auto result = obs::diffCaptures(v1, v2);
  EXPECT_EQ(result.regressions(), 0u);
  EXPECT_EQ(result.findings(), 0u);
}

TEST(CaptureV2, EncodingIsDeterministic) {
  const auto cap = realisticCapture();
  EXPECT_EQ(cap.serialize(obs::CaptureFormat::V2),
            cap.serialize(obs::CaptureFormat::V2));
}

TEST(CaptureV2, EveryTruncationIsRejectedWithDiagnostics) {
  const std::string full =
      realisticCapture().serialize(obs::CaptureFormat::V2);
  for (std::size_t len = 0; len < full.size(); ++len) {
    try {
      obs::RunCapture::parse(full.substr(0, len));
      FAIL() << "truncation to " << len << " bytes parsed successfully";
    } catch (const std::exception& e) {
      EXPECT_STRNE(e.what(), "") << "empty diagnostic at length " << len;
    }
  }
}

TEST(CaptureV2, TrailingGarbageAfterEndBlockIsRejected) {
  std::string bytes = realisticCapture().serialize(obs::CaptureFormat::V2);
  bytes += '\0';
  EXPECT_THROW(obs::RunCapture::parse(bytes), std::runtime_error);
}

TEST(CaptureV2, EveryBitFlipIsDetectedOrHarmless) {
  const auto cap = realisticCapture();
  const std::string full = cap.serialize(obs::CaptureFormat::V2);
  for (std::size_t byte = 0; byte < full.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = full;
      flipped[byte] = static_cast<char>(flipped[byte] ^ (1 << bit));
      try {
        // Block checksums make silent mis-parses the failure mode to
        // fear; a flip that still decodes must decode to the same run.
        expectSameCapture(cap, obs::RunCapture::parse(flipped));
      } catch (const std::exception& e) {
        EXPECT_STRNE(e.what(), "")
            << "empty diagnostic at byte " << byte << " bit " << bit;
      }
    }
  }
}

// --- archive ------------------------------------------------------------

constexpr const char* kBenchDoc =
    "{\"schema\":\"iop-bench/1\",\"results\":["
    "{\"name\":\"BM_Engine\",\"iterations\":100,\"ns_per_op\":1250.5,"
    "\"bytes_per_second\":2000000}]}";

TEST(Archive, AddListLoadRoundTrip) {
  TempDir dir("roundtrip");
  obs::Archive archive(dir.path());
  const auto cap = realisticCapture();
  const auto first = archive.addCapture(cap, "aaaa111");
  const auto second = archive.addBench(kBenchDoc, "engine", "aaaa111");
  EXPECT_EQ(first.seq, 1u);
  EXPECT_EQ(second.seq, 2u);
  EXPECT_EQ(first.seriesKey(), "btio/Configuration A/4");
  EXPECT_EQ(second.seriesKey(), "engine/bench/0");

  std::size_t badLines = 99;
  const auto entries = archive.list(&badLines);
  EXPECT_EQ(badLines, 0u);
  ASSERT_EQ(entries.size(), 2u);
  expectSameCapture(cap, archive.loadCapture(entries[0]));
  const auto bench = archive.loadBench(entries[1]);
  ASSERT_EQ(bench.size(), 1u);
  EXPECT_EQ(bench[0].name, "BM_Engine");
  EXPECT_DOUBLE_EQ(bench[0].nsPerOp, 1250.5);

  EXPECT_THROW(archive.loadCapture(entries[1]), std::runtime_error);
  EXPECT_THROW(archive.loadBench(entries[0]), std::runtime_error);
}

TEST(Archive, IdenticalPayloadsShareOneObject) {
  TempDir dir("dedup");
  obs::Archive archive(dir.path());
  const auto cap = realisticCapture();
  const auto a = archive.addCapture(cap, "one");
  const auto b = archive.addCapture(cap, "two");
  EXPECT_EQ(a.hash, b.hash);
  EXPECT_NE(a.seq, b.seq);
  std::size_t objects = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(dir.path() / "objects")) {
    objects += entry.is_regular_file() ? 1 : 0;
  }
  EXPECT_EQ(objects, 1u);
}

TEST(Archive, MalformedBenchNeverEntersTheArchive) {
  TempDir dir("badbench");
  obs::Archive archive(dir.path());
  EXPECT_THROW(archive.addBench("{\"schema\":\"nope\"}", "x", ""),
               std::invalid_argument);
  EXPECT_TRUE(archive.list().empty());
}

TEST(Archive, TornManifestLinesAreSkippedNotFatal) {
  TempDir dir("torn");
  obs::Archive archive(dir.path());
  archive.addCapture(realisticCapture(), "good");
  {
    std::ofstream out(archive.manifestPath(),
                      std::ios::binary | std::ios::app);
    out << "{\"schema\":\"iop-archive/1\",\"seq\":2,\"kind\":\"cap";
  }
  std::size_t badLines = 0;
  const auto entries = archive.list(&badLines);
  EXPECT_EQ(entries.size(), 1u);
  EXPECT_EQ(badLines, 1u);
  // The archive keeps working: the next append lands after the torn tail.
  archive.addCapture(realisticCapture(100.0), "after");
  EXPECT_EQ(archive.list().size(), 2u);
}

TEST(Archive, ClobberedObjectIsDetectedOnLoad) {
  TempDir dir("clobber");
  obs::Archive archive(dir.path());
  const auto entry = archive.addCapture(realisticCapture(), "x");
  {
    std::ofstream out(archive.objectPath(entry), std::ios::binary);
    out << "not the archived bytes";
  }
  EXPECT_THROW(archive.loadCapture(entry), std::runtime_error);
}

TEST(Archive, GcKeepsTheNewestPerSeries) {
  TempDir dir("gc");
  obs::Archive archive(dir.path());
  for (int i = 0; i < 5; ++i) {
    archive.addCapture(realisticCapture(100.0 + i), "r" + std::to_string(i));
  }
  archive.addBench(kBenchDoc, "engine", "r0");
  const auto result = archive.gc(2);
  EXPECT_EQ(result.prunedEntries, 3u);  // captures beyond the newest 2
  const auto entries = archive.list();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].label, "r3");
  EXPECT_EQ(entries[1].label, "r4");
  EXPECT_EQ(entries[2].kind, "bench");
  // Surviving entries still load (their objects were not collected).
  for (const auto& e : entries) {
    EXPECT_NO_THROW(archive.loadObject(e));
  }
  std::size_t objects = 0;
  for (const auto& file :
       std::filesystem::directory_iterator(dir.path() / "objects")) {
    objects += file.is_regular_file() ? 1 : 0;
  }
  EXPECT_EQ(objects, 3u);
}

TEST(Archive, ConcurrentWritersNeverTearTheManifest) {
  TempDir dir("race");
  constexpr int kThreads = 4;
  constexpr int kPerThread = 8;
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&dir, t] {
      obs::Archive archive(dir.path());
      for (int i = 0; i < kPerThread; ++i) {
        archive.addCapture(realisticCapture(100.0 + t * kPerThread + i),
                           "t" + std::to_string(t));
      }
    });
  }
  for (auto& w : writers) w.join();
  obs::Archive archive(dir.path());
  std::size_t badLines = 0;
  const auto entries = archive.list(&badLines);
  EXPECT_EQ(badLines, 0u);
  ASSERT_EQ(entries.size(),
            static_cast<std::size_t>(kThreads * kPerThread));
  // Every entry's object landed whole (atomic rename) and hash-verifies.
  for (const auto& e : entries) {
    EXPECT_NO_THROW(archive.loadCapture(e));
  }
}

// --- trend engine -------------------------------------------------------

TEST(TrendStats, MedianAndMad) {
  EXPECT_DOUBLE_EQ(obs::medianOf({3, 1, 2}), 2);
  EXPECT_DOUBLE_EQ(obs::medianOf({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(obs::medianOf({}), 0);
  EXPECT_DOUBLE_EQ(obs::madOf({1, 1, 1, 10}, 1), 0);
  EXPECT_DOUBLE_EQ(obs::madOf({1, 2, 3, 4, 5}, 3), 1);
}

TEST(TrendStats, SparklineSpansTheBlocks) {
  const std::string line = obs::sparkline({0, 1, 2, 3});
  EXPECT_NE(line.find("▁"), std::string::npos);
  EXPECT_NE(line.find("█"), std::string::npos);
  EXPECT_EQ(obs::sparkline({}), "");
}

obs::Archive syntheticHistory(const TempDir& dir, double lastSlowdown) {
  obs::Archive archive(dir.path());
  for (int i = 0; i < 5; ++i) {
    archive.addCapture(realisticCapture(261.875), "r" + std::to_string(i));
  }
  archive.addCapture(realisticCapture(261.875, lastSlowdown), "newest");
  return archive;
}

TEST(Trend, CleanHistoryHasNoRegressions) {
  TempDir dir("clean");
  auto archive = syntheticHistory(dir, 1.0);
  const auto report = obs::analyzeTrends(archive);
  EXPECT_GT(report.series.size(), 0u);
  EXPECT_EQ(report.regressions(), 0u);
  EXPECT_EQ(report.renderCheck(), "");
}

TEST(Trend, TwentyPercentMakespanJumpIsFlaggedByName) {
  TempDir dir("jump");
  auto archive = syntheticHistory(dir, 1.2);
  const auto report = obs::analyzeTrends(archive);
  EXPECT_GT(report.regressions(), 0u);
  const std::string check = report.renderCheck();
  // The CI gate names the app, config and metric of what regressed.
  EXPECT_NE(check.find("btio"), std::string::npos);
  EXPECT_NE(check.find("Configuration A"), std::string::npos);
  EXPECT_NE(check.find("makespan"), std::string::npos);
  EXPECT_NE(check.find("REGRESSION"), std::string::npos);
  bool sawMakespanRegression = false;
  for (const auto& s : report.series) {
    if (s.metric == "makespan") {
      EXPECT_TRUE(s.regression);
      // Deterministic history: MAD = 0, the relative floor (1% of the
      // median) makes a 20% jump ~20 sigma.
      EXPECT_NEAR(s.deviation, 20.0, 0.5);
      sawMakespanRegression = true;
    }
  }
  EXPECT_TRUE(sawMakespanRegression);
}

TEST(Trend, ImprovementsFlagButAreNotRegressions) {
  TempDir dir("improve");
  auto archive = syntheticHistory(dir, 0.5);
  const auto report = obs::analyzeTrends(archive);
  EXPECT_EQ(report.regressions(), 0u);
  EXPECT_GT(report.flaggedSeries(), 0u);
}

TEST(Trend, MinHistoryGatesFlagging) {
  TempDir dir("short");
  obs::Archive archive(dir.path());
  archive.addCapture(realisticCapture(261.875), "a");
  archive.addCapture(realisticCapture(261.875), "b");
  archive.addCapture(realisticCapture(261.875, 3.0), "c");  // 2 priors < 3
  const auto report = obs::analyzeTrends(archive);
  EXPECT_EQ(report.regressions(), 0u);
}

TEST(Trend, BenchSeriesRegressOnRisingNsPerOp) {
  TempDir dir("bench");
  obs::Archive archive(dir.path());
  const auto doc = [](double nsPerOp) {
    std::ostringstream out;
    out << "{\"schema\":\"iop-bench/1\",\"results\":[{\"name\":\"BM_X\","
        << "\"iterations\":10,\"ns_per_op\":" << nsPerOp << "}]}";
    return out.str();
  };
  for (int i = 0; i < 5; ++i) {
    archive.addBench(doc(1000), "engine", "r" + std::to_string(i));
  }
  archive.addBench(doc(1300), "engine", "newest");
  const auto report = obs::analyzeTrends(archive);
  ASSERT_EQ(report.series.size(), 1u);
  EXPECT_EQ(report.series[0].metric, "BM_X ns/op");
  EXPECT_TRUE(report.series[0].regression);
}

TEST(Trend, ReportsAreDeterministic) {
  TempDir dir("determ");
  auto archive = syntheticHistory(dir, 1.2);
  const auto a = obs::analyzeTrends(archive);
  const auto b = obs::analyzeTrends(archive);
  EXPECT_EQ(a.renderText(), b.renderText());
  EXPECT_EQ(a.renderCheck(), b.renderCheck());
  EXPECT_EQ(a.renderHtml(), b.renderHtml());
}

TEST(Trend, MetricFilterNarrowsTheReport) {
  TempDir dir("filter");
  auto archive = syntheticHistory(dir, 1.0);
  obs::TrendOptions options;
  options.metricFilter = "makespan";
  const auto report = obs::analyzeTrends(archive, options);
  ASSERT_EQ(report.series.size(), 1u);
  EXPECT_EQ(report.series[0].metric, "makespan");
}

TEST(Trend, HtmlReportIsSelfContained) {
  TempDir dir("html");
  auto archive = syntheticHistory(dir, 1.2);
  const std::string html = obs::analyzeTrends(archive).renderHtml();
  EXPECT_NE(html.find("<!doctype html>"), std::string::npos);
  EXPECT_NE(html.find("<svg"), std::string::npos);
  EXPECT_NE(html.find("REGRESSION"), std::string::npos);
  // Single file, no external assets.
  EXPECT_EQ(html.find("http://"), std::string::npos);
  EXPECT_EQ(html.find("https://"), std::string::npos);
  EXPECT_EQ(html.find("src="), std::string::npos);
}

TEST(Trend, UnmeasuredBandwidthIsNotASeriesPoint) {
  obs::SeriesSet set;
  auto cap = realisticCapture();
  cap.phases.resize(1);
  cap.phases[0].bandwidth = 0;
  set.addCapture(cap, 1, "only");
  const auto report = std::move(set).judge({});
  for (const auto& s : report.series) {
    EXPECT_EQ(s.metric.find("bandwidth"), std::string::npos) << s.metric;
  }
  EXPECT_EQ(report.series.size(), 3u);  // makespan, residual, phase time
}

// --- option validation: values that would switch the rule off ----------

void expectRejected(const obs::TrendOptions& options,
                    const std::string& option) {
  try {
    options.validate();
    ADD_FAILURE() << option << " value accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(option), std::string::npos)
        << e.what();
  }
}

obs::TrendOptions withMadThreshold(double value) {
  obs::TrendOptions options;
  options.madThreshold = value;
  return options;
}

obs::TrendOptions withRelFloor(double value) {
  obs::TrendOptions options;
  options.relFloorPct = value;
  return options;
}

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(TrendOptions, RejectsNanMadThreshold) {
  expectRejected(withMadThreshold(kNan), "--mad-threshold");
}

TEST(TrendOptions, RejectsInfiniteMadThreshold) {
  expectRejected(withMadThreshold(kInf), "--mad-threshold");
}

TEST(TrendOptions, RejectsZeroMadThreshold) {
  expectRejected(withMadThreshold(0), "--mad-threshold");
}

TEST(TrendOptions, RejectsNegativeMadThreshold) {
  expectRejected(withMadThreshold(-4), "--mad-threshold");
}

TEST(TrendOptions, RejectsNanRelFloor) {
  expectRejected(withRelFloor(kNan), "--rel-floor-pct");
}

TEST(TrendOptions, RejectsInfiniteRelFloor) {
  expectRejected(withRelFloor(kInf), "--rel-floor-pct");
}

TEST(TrendOptions, RejectsNegativeRelFloor) {
  expectRejected(withRelFloor(-1), "--rel-floor-pct");
}

TEST(TrendOptions, RejectsNegativeMinHistory) {
  obs::TrendOptions options;
  options.minHistory = -1;
  expectRejected(options, "--min-history");
}

void expectThresholdPctRejected(double value) {
  try {
    obs::twoRunOptions(value);
    ADD_FAILURE() << "--threshold-pct " << value << " accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--threshold-pct"),
              std::string::npos)
        << e.what();
  }
}

TEST(TrendOptions, RejectsNanThresholdPct) { expectThresholdPctRejected(kNan); }

TEST(TrendOptions, RejectsInfiniteThresholdPct) {
  expectThresholdPctRejected(kInf);
}

TEST(TrendOptions, RejectsZeroThresholdPct) { expectThresholdPctRejected(0); }

TEST(TrendOptions, RejectsNegativeThresholdPct) {
  expectThresholdPctRejected(-5);
}

TEST(TrendOptions, AcceptsDefaultsAndBoundaryValues) {
  EXPECT_NO_THROW(obs::TrendOptions{}.validate());
  obs::TrendOptions edge;
  edge.relFloorPct = 0;
  edge.minHistory = 0;
  EXPECT_NO_THROW(edge.validate());
  const auto twoRun = obs::twoRunOptions(5);
  EXPECT_NO_THROW(twoRun.validate());
  EXPECT_EQ(twoRun.madThreshold, 1);
  EXPECT_EQ(twoRun.relFloorPct, 5);
  EXPECT_EQ(twoRun.minHistory, 1);
}

TEST(TrendOptions, EveryEntryPointValidates) {
  TempDir dir("validate");
  obs::Archive archive(dir.path());
  EXPECT_THROW(obs::analyzeTrends(archive, withMadThreshold(kNan)),
               std::invalid_argument);
  const auto cap = realisticCapture();
  obs::DiffOptions nanThreshold;
  nanThreshold.thresholdPct = kNan;
  EXPECT_THROW(obs::diffCaptures(cap, cap, nanThreshold),
               std::invalid_argument);
  EXPECT_THROW(obs::diffBench({}, {}, nanThreshold), std::invalid_argument);
}

// --- one rule: the two-run diff is the one-prior-point trend ------------

struct RuleCase {
  double before;
  double after;
  double thresholdPct;
};

// Both sides of each boundary, for rises and falls.
constexpr RuleCase kRuleCases[] = {
    {100, 104.9, 5},   {100, 105.1, 5},    {100, 95.1, 5},
    {100, 94.9, 5},    {2.0, 2.19, 10},    {2.0, 2.21, 10},
    {2.0, 1.81, 10},   {2.0, 1.79, 10},    {1000, 3990, 300},
    {1000, 4010, 300}, {0.25, 0.2501, 1},  {0.25, 0.26, 1},
    {7.5, 7.5, 5},
};

bool beyond(const RuleCase& c) {
  return std::fabs(100.0 * (c.after - c.before) / c.before) > c.thresholdPct;
}

obs::RunCapture onePhaseCapture(double value) {
  obs::RunCapture cap;
  cap.app = "btio";
  cap.np = 4;
  cap.config = "Configuration A";
  cap.makespan = 1000;
  obs::CapturePhase p;
  p.id = 1;
  p.label = "W f1";
  p.ioSeconds = value;          // lower is better
  p.bandwidth = value * 1e6;    // higher is better
  cap.phases.push_back(p);
  return cap;
}

std::string benchDoc(double value) {
  std::ostringstream out;
  out.precision(17);
  out << "{\"schema\":\"iop-bench/1\",\"results\":[{\"name\":\"BM_X\","
      << "\"iterations\":10,\"ns_per_op\":" << value
      << ",\"bytes_per_second\":" << value * 1e6 << "}]}";
  return out.str();
}

const obs::TrendSeries& seriesNamed(const obs::TrendReport& report,
                                    const std::string& metric) {
  for (const auto& s : report.series) {
    if (s.metric == metric) return s;
  }
  throw std::runtime_error("no series " + metric);
}

/// The two-run verdict on `metric` is |delta%| > threshold, flagged in
/// the bad direction only.
void expectTwoRunVerdict(const obs::TrendReport& report,
                         const std::string& metric, const RuleCase& c) {
  const auto& s = seriesNamed(report, metric);
  ASSERT_EQ(s.points.size(), 2u);
  EXPECT_EQ(s.flagged, beyond(c)) << metric << " " << c.before << " -> "
                                  << c.after << " at " << c.thresholdPct
                                  << "%";
  const bool worse = s.lowerIsBetter ? c.after > c.before
                                     : c.after < c.before;
  EXPECT_EQ(s.regression, beyond(c) && worse) << metric;
}

/// Same series, same verdicts, same deviations.
void expectSameVerdicts(const obs::TrendReport& diff,
                        const obs::TrendReport& trend) {
  ASSERT_EQ(diff.series.size(), trend.series.size());
  for (std::size_t i = 0; i < diff.series.size(); ++i) {
    EXPECT_EQ(diff.series[i].metric, trend.series[i].metric);
    EXPECT_EQ(diff.series[i].flagged, trend.series[i].flagged)
        << diff.series[i].metric;
    EXPECT_EQ(diff.series[i].regression, trend.series[i].regression)
        << diff.series[i].metric;
    EXPECT_EQ(diff.series[i].deviation, trend.series[i].deviation)
        << diff.series[i].metric;
  }
}

TEST(OneRule, CaptureDiffFlagsExactlyBeyondThreshold) {
  int n = 0;
  for (const auto& c : kRuleCases) {
    const auto a = onePhaseCapture(c.before);
    const auto b = onePhaseCapture(c.after);
    obs::DiffOptions options;
    options.thresholdPct = c.thresholdPct;
    const auto diff = obs::diffCaptures(a, b, options);
    expectTwoRunVerdict(diff.series, "phase 1 [W f1] time", c);
    expectTwoRunVerdict(diff.series, "phase 1 [W f1] bandwidth", c);

    // The same two captures as a 2-entry archive, judged by the trend
    // engine under the two-run options: identical per-series verdicts.
    TempDir dir("onerule_cap" + std::to_string(n++));
    obs::Archive archive(dir.path());
    archive.addCapture(a, "before");
    archive.addCapture(b, "after");
    expectSameVerdicts(
        diff.series,
        obs::analyzeTrends(archive, obs::twoRunOptions(c.thresholdPct)));
  }
}

TEST(OneRule, BenchDiffFlagsExactlyBeyondThreshold) {
  int n = 0;
  for (const auto& c : kRuleCases) {
    const auto a = obs::parseBenchJson(benchDoc(c.before));
    const auto b = obs::parseBenchJson(benchDoc(c.after));
    obs::DiffOptions options;
    options.thresholdPct = c.thresholdPct;
    const auto diff = obs::diffBench(a, b, options);
    expectTwoRunVerdict(diff.series, "BM_X ns/op", c);
    expectTwoRunVerdict(diff.series, "BM_X bytes/s", c);

    TempDir dir("onerule_bench" + std::to_string(n++));
    obs::Archive archive(dir.path());
    archive.addBench(benchDoc(c.before), "bench", "before");
    archive.addBench(benchDoc(c.after), "bench", "after");
    expectSameVerdicts(
        diff.series,
        obs::analyzeTrends(archive, obs::twoRunOptions(c.thresholdPct)));
  }
}

// --- shared bench JSON parser (hoisted out of benchdiff) ----------------

TEST(BenchJson, SharedParserReadsSnapshots) {
  const auto entries = obs::parseBenchJson(kBenchDoc);
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].name, "BM_Engine");
  EXPECT_EQ(entries[0].iterations, 100);
  EXPECT_DOUBLE_EQ(entries[0].nsPerOp, 1250.5);
  EXPECT_DOUBLE_EQ(entries[0].bytesPerSecond, 2000000);
  EXPECT_THROW(obs::parseBenchJson("[]"), std::invalid_argument);
}

}  // namespace
