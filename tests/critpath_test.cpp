// iop::obs v2 tests: dependency-edge recording, critical-path extraction
// and blame attribution (the 1e-9 makespan-tiling invariant on real
// applications), run captures, the regression-diff engine, and the
// structured logger.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>

#include "analysis/blame.hpp"
#include "analysis/runner.hpp"
#include "apps/btio.hpp"
#include "apps/madbench.hpp"
#include "configs/configs.hpp"
#include "obs/benchjson.hpp"
#include "obs/capture.hpp"
#include "obs/critpath.hpp"
#include "obs/diff.hpp"
#include "obs/edges.hpp"
#include "obs/hub.hpp"
#include "obs/log.hpp"

#include "capture_fixture.hpp"

namespace iop {
namespace {

// --- edge recorder ------------------------------------------------------

TEST(EdgeRecorder, RecordsActivitiesLinksAndHorizon) {
  obs::EdgeRecorder rec;
  const auto a = rec.begin(obs::ActKind::MpiIo, 0, rec.label("write"), 1.0, 64);
  const auto b = rec.begin(
      obs::ActKind::Disk, -1, rec.label("disk0"), 1.5, 64, a);
  EXPECT_EQ(a, 0);
  EXPECT_EQ(b, 1);
  EXPECT_FALSE(rec.activities()[0].closed());
  rec.end(b, 2.0);
  rec.end(a, 2.5);
  rec.end(-1, 9.0);  // kNoCause must be ignored
  EXPECT_TRUE(rec.activities()[0].closed());
  EXPECT_EQ(rec.activities()[1].cause, a);
  EXPECT_EQ(rec.activities()[1].bytes, 64u);

  const auto i = rec.instant(
      obs::ActKind::Collective, 1, rec.label("arrive"), 2.2, a);
  EXPECT_TRUE(rec.activities()[static_cast<std::size_t>(i)].closed());
  EXPECT_DOUBLE_EQ(rec.activities()[static_cast<std::size_t>(i)].begin, 2.2);
  EXPECT_DOUBLE_EQ(rec.activities()[static_cast<std::size_t>(i)].end, 2.2);

  rec.link(i, a);
  ASSERT_EQ(rec.links().size(), 1u);
  EXPECT_EQ(rec.links()[0].pred, i);
  EXPECT_EQ(rec.links()[0].succ, a);
}

// --- critical path on a hand-built graph --------------------------------

// Two rank-owned ops with a cache+disk service chain under the first:
//   A: MpiIo rank0 [1,3]  with children C1: Cache [1.2,1.8], C2: Disk
//   [1.8,2.6];  B: MpiIo rank0 [4,6];  makespan 7.
obs::EdgeRecorder syntheticGraph() {
  obs::EdgeRecorder rec;
  const auto a = rec.begin(obs::ActKind::MpiIo, 0, rec.label("opA"), 1.0, 100);
  const auto c1 = rec.begin(
      obs::ActKind::Cache, -1, rec.label("cache"), 1.2, 100, a);
  rec.end(c1, 1.8);
  const auto c2 = rec.begin(
      obs::ActKind::Disk, -1, rec.label("disk"), 1.8, 100, a);
  rec.end(c2, 2.6);
  rec.end(a, 3.0);
  const auto b = rec.begin(obs::ActKind::MpiIo, 0, rec.label("opB"), 4.0, 100);
  rec.end(b, 6.0);
  return rec;
}

TEST(CriticalPath, TilesMakespanContiguouslyAndExactly) {
  const auto rec = syntheticGraph();
  const auto path = obs::computeCriticalPath(rec, 7.0);
  ASSERT_FALSE(path.segments.empty());
  EXPECT_DOUBLE_EQ(path.segments.front().begin, 0.0);
  EXPECT_DOUBLE_EQ(path.segments.back().end, 7.0);
  for (std::size_t i = 1; i < path.segments.size(); ++i) {
    EXPECT_DOUBLE_EQ(path.segments[i].begin, path.segments[i - 1].end);
  }
  EXPECT_NEAR(path.totalSeconds(), 7.0, 1e-12);
}

TEST(CriticalPath, ClimbsFromChildrenBackToProgramOrder) {
  // The walk descends into opA's cache/disk children; reaching the first
  // child (no predecessors) it must climb back to opA and blame opA's
  // own lead-in [1.0, 1.2] instead of declaring everything before 1.8 a
  // startup gap.
  const auto rec = syntheticGraph();
  const auto path = obs::computeCriticalPath(rec, 7.0);
  EXPECT_NEAR(path.byCategory.at("mpi-io"), 2.0 + 0.4 + 0.2, 1e-12);
  EXPECT_NEAR(path.byCategory.at("disk"), 0.8, 1e-12);
  EXPECT_NEAR(path.byCategory.at("cache"), 0.6, 1e-12);
  EXPECT_NEAR(path.byCategory.at("startup"), 1.0, 1e-12);
  EXPECT_NEAR(path.byCategory.at("compute"), 1.0, 1e-12);
  EXPECT_NEAR(path.byCategory.at("finalize"), 1.0, 1e-12);
}

TEST(CriticalPath, RendezvousLinkCrossesRanks) {
  // Rank 1's arrival instant precedes rank 0's collective: the path from
  // the collective must step across ranks through the link.
  obs::EdgeRecorder rec;
  const auto w = rec.begin(
      obs::ActKind::MpiIo, 1, rec.label("slow write"), 0.5, 10);
  rec.end(w, 4.0);
  const auto arrive = rec.instant(
      obs::ActKind::Collective, 1, rec.label("arrive"), 4.0);
  const auto coll = rec.begin(
      obs::ActKind::Collective, 0, rec.label("barrier"), 4.0);
  rec.link(arrive, coll);
  rec.end(coll, 5.0);
  const auto path = obs::computeCriticalPath(rec, 5.0);
  EXPECT_NEAR(path.byRank.at(1), 3.5, 1e-12);
  EXPECT_NEAR(path.byRank.at(0), 1.0, 1e-12);
  EXPECT_NEAR(path.totalSeconds(), 5.0, 1e-12);
}

// --- phase attribution --------------------------------------------------

TEST(BlameTable, OverlappingWindowsResolveSmallestFirstAndSumToMakespan) {
  const auto rec = syntheticGraph();
  const auto path = obs::computeCriticalPath(rec, 7.0);
  std::vector<obs::PhaseWindow> windows(2);
  windows[0] = {1, "outer", 0.5, 6.5, 1000};
  windows[1] = {2, "inner", 1.5, 2.5, 400};
  const auto table = obs::attributePhases(path, windows);
  ASSERT_EQ(table.rows.size(), 2u);
  // The inner window owns exactly [1.5, 2.5] of critical activity time.
  EXPECT_NEAR(table.rows[1].attrSeconds, 1.0, 1e-12);
  const double covered = table.attributedIoSeconds() + table.gapSeconds +
                         table.outsideSeconds;
  EXPECT_NEAR(covered, 7.0, 1e-9);
  // The eq. 1-2 identity: estimating from the attributed bandwidths gives
  // back the attributed time.
  EXPECT_NEAR(table.estimateSeconds(), table.attributedIoSeconds(), 1e-9);
  EXPECT_NEAR(table.rows[1].attrBandwidth, 400.0, 1e-9);
}

// --- acceptance on real applications ------------------------------------

struct BlamedRun {
  double makespan = 0;
  obs::CriticalPathResult path;
  obs::BlameTable table;
};

template <typename MakeMain>
BlamedRun blameApp(const std::string& name, MakeMain makeMain, int np) {
  auto cluster = configs::makeConfig(configs::ConfigId::A);
  obs::Session session;
  cluster.engine->setObs(session.hub());
  auto run = analysis::runAndTrace(cluster, name, makeMain(cluster), np);
  BlamedRun out;
  out.makespan = run.makespanSeconds;
  out.path = obs::computeCriticalPath(session.edges(), run.makespanSeconds);
  out.table =
      obs::attributePhases(out.path, analysis::phaseWindows(run.model));
  return out;
}

void expectBlameInvariants(const BlamedRun& run) {
  // Tiling invariant: the blame segments decompose the makespan exactly.
  EXPECT_NEAR(run.path.totalSeconds(), run.makespan, 1e-9);
  const double covered = run.table.attributedIoSeconds() +
                         run.table.gapSeconds + run.table.outsideSeconds;
  EXPECT_NEAR(covered, run.makespan, 1e-9);
  // Eq. 1-2 consistency: sum(weight / BW_attr) reproduces T_attr.
  EXPECT_NEAR(run.table.estimateSeconds(), run.table.attributedIoSeconds(),
              1e-9);
  EXPECT_NEAR(run.table.residualSeconds(),
              run.makespan - run.table.attributedIoSeconds(), 1e-9);
  // The path must find real I/O work, not degenerate into one giant gap.
  EXPECT_GT(run.table.attributedIoSeconds(), 0.0);
}

TEST(BlameAcceptance, BtioFullDecomposesMakespan) {
  auto run = blameApp(
      "btio",
      [](const configs::ClusterConfig& cluster) {
        apps::BtioParams p;
        p.mount = cluster.mount;
        p.cls = apps::BtClass::A;
        p.fullSubtype = true;
        return apps::makeBtio(p);
      },
      4);
  expectBlameInvariants(run);
}

TEST(BlameAcceptance, MadbenchDecomposesMakespan) {
  auto run = blameApp(
      "madbench2",
      [](const configs::ClusterConfig& cluster) {
        apps::MadbenchParams p;
        p.mount = cluster.mount;
        p.kpix = 8;
        p.bins = 8;
        return apps::makeMadbench(p);
      },
      4);
  expectBlameInvariants(run);
}

// --- run captures -------------------------------------------------------

using fixture::sampleCapture;

TEST(RunCapture, RoundTripsThroughStreamExactly) {
  const auto cap = sampleCapture();
  const auto back = obs::RunCapture::parse(fixture::kSampleCaptureV1);
  EXPECT_EQ(back.app, cap.app);
  EXPECT_EQ(back.np, cap.np);
  EXPECT_EQ(back.config, cap.config);
  EXPECT_DOUBLE_EQ(back.makespan, cap.makespan);
  ASSERT_EQ(back.phases.size(), 1u);
  EXPECT_EQ(back.phases[0].label, cap.phases[0].label);
  EXPECT_EQ(back.phases[0].weightBytes, cap.phases[0].weightBytes);
  EXPECT_DOUBLE_EQ(back.phases[0].ioSeconds, cap.phases[0].ioSeconds);
  EXPECT_EQ(back.metricsCsv, cap.metricsCsv);
}

TEST(RunCapture, RejectsForeignFiles) {
  EXPECT_THROW(obs::RunCapture::parse("not a capture\n"),
               std::runtime_error);
}

// --- diff engine --------------------------------------------------------

TEST(Diff, IdenticalCapturesProduceNoFindings) {
  const auto cap = sampleCapture();
  const auto result = obs::diffCaptures(cap, cap);
  EXPECT_EQ(result.findings(), 0u);
  EXPECT_EQ(result.regressions(), 0u);
}

TEST(Diff, SlowerPhaseAndMakespanAreRegressions) {
  const auto a = sampleCapture();
  auto b = a;
  b.makespan *= 1.5;
  b.phases[0].ioSeconds *= 2;
  b.phases[0].bandwidth /= 2;
  const auto result = obs::diffCaptures(a, b);
  EXPECT_GE(result.regressions(), 2u);
  bool sawMakespan = false;
  for (const auto& s : result.series.series) {
    if (s.metric == "makespan") {
      sawMakespan = true;
      EXPECT_TRUE(s.flagged);
      EXPECT_TRUE(s.regression);
      EXPECT_NEAR(s.deltaPct(), 50.0, 1e-9);
    }
  }
  EXPECT_TRUE(sawMakespan);
}

TEST(Diff, ImprovementsAreFindingsButNotRegressions) {
  const auto a = sampleCapture();
  auto b = a;
  b.phases[0].ioSeconds /= 2;
  b.phases[0].bandwidth *= 2;
  const auto result = obs::diffCaptures(a, b);
  EXPECT_GT(result.findings(), 0u);
  EXPECT_EQ(result.regressions(), 0u);
}

TEST(Diff, HistogramShapeChangeIsDetected) {
  const auto a = sampleCapture();
  auto b = a;
  // All mass moves from the le_1 bucket to the overflow bucket.
  b.metricsCsv =
      "disk.queue_depth,histogram,le_1,0\n"
      "disk.queue_depth,histogram,le_inf,4\n";
  const auto result = obs::diffCaptures(a, b);
  ASSERT_EQ(result.changedShapes.size(), 1u);
  EXPECT_EQ(result.changedShapes[0].first, "disk.queue_depth");
  EXPECT_GT(result.regressions(), 0u);
}

TEST(Diff, ThresholdsSuppressSmallChanges) {
  const auto a = sampleCapture();
  auto b = a;
  b.makespan *= 1.02;           // +2% < default 5%
  b.phases[0].ioSeconds *= 1.02;
  const auto result = obs::diffCaptures(a, b);
  EXPECT_EQ(result.regressions(), 0u);
  obs::DiffOptions strict;
  strict.thresholdPct = 1.0;
  EXPECT_GT(obs::diffCaptures(a, b, strict).regressions(), 0u);
}

TEST(Diff, ParseHistogramBucketsGroupsByMetric) {
  const auto buckets = obs::parseHistogramBuckets(
      "a.lat,histogram,le_0.5,1\n"
      "a.lat,histogram,le_inf,2\n"
      "a.lat,histogram,count,3\n"   // not a bucket row
      "b.depth,histogram,le_1,7\n"
      "c.count,counter,value,9\n");  // not a histogram
  ASSERT_EQ(buckets.size(), 2u);
  EXPECT_EQ(buckets[0].first, "a.lat");
  EXPECT_EQ(buckets[0].second, (std::vector<double>{1, 2}));
  EXPECT_EQ(buckets[1].first, "b.depth");
  EXPECT_EQ(buckets[1].second, (std::vector<double>{7}));
}

// --- logger -------------------------------------------------------------

TEST(Logger, FiltersByLevelAndEmitsJsonl) {
  obs::Logger log(obs::LogLevel::Info);
  std::string sink;
  log.captureTo(&sink);
  log.debug("x", "dropped");
  log.info("tool", "wrote_file", "\"path\":\"a b\",\"n\":3");
  log.warn("disk", "queue_saturated");
  log.captureTo(nullptr);
  EXPECT_EQ(log.lineCount(), 2u);
  EXPECT_EQ(sink.find("dropped"), std::string::npos);
  EXPECT_NE(
      sink.find("{\"level\":\"info\",\"component\":\"tool\","
                "\"event\":\"wrote_file\",\"path\":\"a b\",\"n\":3}"),
      std::string::npos);
  EXPECT_NE(sink.find("\"level\":\"warn\""), std::string::npos);
}

TEST(Logger, OffSilencesEverything) {
  obs::Logger log(obs::LogLevel::Off);
  std::string sink;
  log.captureTo(&sink);
  log.warn("x", "y");
  EXPECT_TRUE(sink.empty());
  EXPECT_FALSE(log.enabled(obs::LogLevel::Warn));
}

// --- similarity alignment ----------------------------------------------

obs::CapturePhase makePhase(int id, const std::string& label,
                            std::uint64_t weight, double seconds) {
  obs::CapturePhase p;
  p.id = id;
  p.familyId = id;
  p.weightBytes = weight;
  p.ioSeconds = seconds;
  p.bandwidth = seconds > 0 ? static_cast<double>(weight) / seconds : 0;
  p.label = label;
  return p;
}

TEST(DiffAlign, ParseAlignModeNames) {
  EXPECT_EQ(obs::parseAlignMode("id"), obs::AlignMode::ById);
  EXPECT_EQ(obs::parseAlignMode("similarity"), obs::AlignMode::BySimilarity);
  EXPECT_THROW(obs::parseAlignMode("fuzzy"), std::invalid_argument);
}

TEST(DiffAlign, SimilarityMatchesRenumberedPhases) {
  // The "after" run re-detects the same three phases with shifted ids, as
  // happens when phase detection splits an early window differently.
  obs::RunCapture a;
  a.phases = {makePhase(1, "W f1", 1000, 0.1), makePhase(2, "W f1", 2000, 0.2),
              makePhase(3, "R f1", 4000, 0.4)};
  obs::RunCapture b;
  b.phases = {makePhase(4, "W f1", 1000, 0.1), makePhase(5, "W f1", 2000, 0.2),
              makePhase(6, "R f1", 4000, 0.4)};

  // By id: nothing matches — six missing-phase findings.
  const auto byId = obs::alignPhases(a, b, obs::AlignMode::ById);
  std::size_t matchedById = 0;
  for (const auto& [pa, pb] : byId) {
    if (pa != nullptr && pb != nullptr) ++matchedById;
  }
  EXPECT_EQ(matchedById, 0u);
  EXPECT_EQ(obs::diffCaptures(a, b).onlyInOne.size(), 6u);

  // By similarity: every phase pairs up in order within its label group.
  const auto bySim = obs::alignPhases(a, b, obs::AlignMode::BySimilarity);
  ASSERT_EQ(bySim.size(), 3u);
  for (const auto& [pa, pb] : bySim) {
    ASSERT_NE(pa, nullptr);
    ASSERT_NE(pb, nullptr);
    EXPECT_EQ(pa->weightBytes, pb->weightBytes);
    EXPECT_EQ(pa->id + 3, pb->id);
  }

  // The capture diff under similarity alignment reports no regressions.
  obs::DiffOptions options;
  options.align = obs::AlignMode::BySimilarity;
  const auto result = obs::diffCaptures(a, b, options);
  EXPECT_EQ(result.regressions(), 0u);
}

TEST(DiffAlign, DissimilarWeightsStayUnmatched) {
  obs::RunCapture a;
  a.phases = {makePhase(1, "W f1", 1000, 0.1)};
  obs::RunCapture b;
  b.phases = {makePhase(9, "W f1", 100000, 10.0)};  // 100x the weight
  const auto pairs = obs::alignPhases(a, b, obs::AlignMode::BySimilarity);
  ASSERT_EQ(pairs.size(), 2u);  // one a-only + one b-only
  EXPECT_EQ(pairs[0].second, nullptr);
  EXPECT_EQ(pairs[1].first, nullptr);
}

TEST(DiffAlign, ExtraPhaseBecomesGap) {
  obs::RunCapture a;
  a.phases = {makePhase(1, "W f1", 1000, 0.1), makePhase(2, "W f1", 1000, 0.1)};
  obs::RunCapture b;
  b.phases = {makePhase(7, "W f1", 1000, 0.1), makePhase(8, "W f1", 1000, 0.1),
              makePhase(9, "W f1", 1000, 0.1)};
  const auto pairs = obs::alignPhases(a, b, obs::AlignMode::BySimilarity);
  std::size_t matched = 0, bOnly = 0;
  for (const auto& [pa, pb] : pairs) {
    if (pa != nullptr && pb != nullptr) ++matched;
    if (pa == nullptr) ++bOnly;
  }
  EXPECT_EQ(matched, 2u);
  EXPECT_EQ(bOnly, 1u);
}

// --- bench JSON diff ----------------------------------------------------

constexpr const char* kBenchA =
    "{\"schema\":\"iop-bench/1\",\"results\":["
    "{\"name\":\"replay/btio\",\"iterations\":10,\"ns_per_op\":1000.0,"
    "\"bytes_per_second\":5.0e8},"
    "{\"name\":\"extract/model\",\"iterations\":5,\"ns_per_op\":2000.0}"
    "]}";

TEST(BenchDiff, ParsesBenchJson) {
  const auto entries = obs::parseBenchJson(kBenchA);
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].name, "replay/btio");
  EXPECT_EQ(entries[0].iterations, 10);
  EXPECT_DOUBLE_EQ(entries[0].nsPerOp, 1000.0);
  EXPECT_DOUBLE_EQ(entries[0].bytesPerSecond, 5.0e8);
  EXPECT_DOUBLE_EQ(entries[1].bytesPerSecond, 0.0);

  EXPECT_THROW(obs::parseBenchJson("{\"schema\":\"other/1\"}"),
               std::invalid_argument);
  EXPECT_THROW(obs::parseBenchJson("not json"), std::invalid_argument);
}

TEST(BenchDiff, FlagsRegressionsBeyondThreshold) {
  auto before = obs::parseBenchJson(kBenchA);
  auto after = before;
  after[0].nsPerOp *= 1.5;          // +50% time: regression
  after[0].bytesPerSecond *= 0.6;   // -40% throughput: regression
  after[1].nsPerOp *= 0.5;          // improvement: finding, not regression
  const auto result = obs::diffBench(before, after);
  EXPECT_EQ(result.regressions(), 2u);
  EXPECT_GE(result.findings(), 3u);
  EXPECT_NE(result.render().find("replay/btio"), std::string::npos);
}

TEST(BenchDiff, ThresholdSuppressesNoise) {
  auto before = obs::parseBenchJson(kBenchA);
  auto after = before;
  after[0].nsPerOp *= 1.05;  // +5% < default 10%
  EXPECT_EQ(obs::diffBench(before, after).regressions(), 0u);
  obs::DiffOptions strict;
  strict.thresholdPct = 1.0;
  EXPECT_EQ(obs::diffBench(before, after, strict).regressions(), 1u);
}

TEST(BenchDiff, MissingResultsAreReportedButNotRegressions) {
  auto before = obs::parseBenchJson(kBenchA);
  auto after = before;
  after.pop_back();
  const auto result = obs::diffBench(before, after);
  EXPECT_EQ(result.regressions(), 0u);
  ASSERT_EQ(result.onlyInOne.size(), 1u);
  EXPECT_EQ(result.onlyInOne[0], "extract/model ns/op");
  EXPECT_NE(
      result.render().find("extract/model ns/op: present in only one run"),
      std::string::npos);
}

TEST(Logger, ParseLevelNamesRoundTrip) {
  for (auto lvl : {obs::LogLevel::Off, obs::LogLevel::Warn,
                   obs::LogLevel::Info, obs::LogLevel::Debug}) {
    EXPECT_EQ(obs::parseLogLevel(obs::logLevelName(lvl)), lvl);
  }
  EXPECT_THROW(obs::parseLogLevel("loud"), std::invalid_argument);
}

}  // namespace
}  // namespace iop
