// iop::sweep — campaign parsing, content-addressed caching, executor
// determinism (-j1 == -jN byte-identical stores), resume and gc.
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/journal.hpp"
#include "sweep/campaign.hpp"
#include "sweep/fsck.hpp"
#include "sweep/executor.hpp"
#include "sweep/hash.hpp"
#include "sweep/postmortem.hpp"
#include "sweep/rank.hpp"
#include "sweep/store.hpp"
#include "sweep/telemetry.hpp"

#include "capture_fixture.hpp"

namespace {

using namespace iop;

// A 12-cell grid (1 model x 2 configs x 2 disk x 3 net factors) over the
// cheap strided example app: the whole campaign evaluates in milliseconds.
constexpr const char* kCampaignText =
    "# comment\n"
    "name sweep-test\n"
    "app example\n"
    "config A\n"
    "config B\n"
    "degrade-disks 1 4\n"
    "degrade-net 1 2 4\n";

sweep::ResolvedCampaign resolveTestCampaign(
    const std::string& text = kCampaignText) {
  return sweep::resolveCampaign(sweep::parseCampaign(text, "."));
}

/// All files under `root` as relative-path -> bytes.
std::map<std::string, std::string> snapshotTree(
    const std::filesystem::path& root) {
  std::map<std::string, std::string> tree;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(root)) {
    if (!entry.is_regular_file()) continue;
    std::ifstream in(entry.path(), std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    tree[entry.path().lexically_relative(root).string()] = buffer.str();
  }
  return tree;
}

class TempDir {
 public:
  explicit TempDir(const std::string& name)
      : path_(std::filesystem::temp_directory_path() /
              ("iop_sweep_test_" + name)) {
    std::filesystem::remove_all(path_);
  }
  ~TempDir() { std::filesystem::remove_all(path_); }
  const std::filesystem::path& path() const { return path_; }

 private:
  std::filesystem::path path_;
};

TEST(ContentHash, SeparatesFieldBoundaries) {
  sweep::ContentHash ab_c;
  ab_c.update("ab");
  ab_c.update("c");
  sweep::ContentHash a_bc;
  a_bc.update("a");
  a_bc.update("bc");
  EXPECT_NE(ab_c.value(), a_bc.value());
  EXPECT_EQ(ab_c.hex().size(), 16u);
}

TEST(ContentHash, DeterministicAcrossInstances) {
  EXPECT_EQ(sweep::hashHex("payload"), sweep::hashHex("payload"));
  EXPECT_NE(sweep::hashHex("payload"), sweep::hashHex("payloae"));
}

TEST(CampaignParse, GridAndDefaults) {
  auto spec = sweep::parseCampaign(kCampaignText, ".");
  EXPECT_EQ(spec.name, "sweep-test");
  ASSERT_EQ(spec.models.size(), 1u);
  EXPECT_TRUE(spec.models[0].fromApp());
  EXPECT_EQ(spec.models[0].app, "example");
  ASSERT_EQ(spec.configs.size(), 2u);
  EXPECT_EQ(spec.degradeDisks, (std::vector<double>{1, 4}));
  EXPECT_EQ(spec.degradeNet, (std::vector<double>{1, 2, 4}));
  EXPECT_FALSE(spec.multiop);
  EXPECT_EQ(spec.characterize.name, "A");
}

TEST(CampaignParse, RejectsMalformedInput) {
  EXPECT_THROW(sweep::parseCampaign("bogus directive\n", "."),
               std::invalid_argument);
  EXPECT_THROW(sweep::parseCampaign("app no-such-app\nconfig A\n", "."),
               std::invalid_argument);
  EXPECT_THROW(
      sweep::parseCampaign("app example\nconfig A\ndegrade-net 0.5\n", "."),
      std::invalid_argument);
  EXPECT_THROW(sweep::parseCampaign("app example\nconfig Z\n", "."),
               std::invalid_argument);
  // a campaign without models or configs is unusable
  EXPECT_THROW(sweep::parseCampaign("config A\n", "."),
               std::invalid_argument);
  EXPECT_THROW(sweep::parseCampaign("app example\n", "."),
               std::invalid_argument);
}

TEST(CampaignParse, DisambiguatesDuplicateLabels) {
  auto spec = sweep::parseCampaign("app example\nconfig A\nconfig A\n", ".");
  EXPECT_EQ(spec.configs[0].label, "A");
  EXPECT_EQ(spec.configs[1].label, "A#2");
}

TEST(CampaignParse, CanonicalTextIsAFixedPoint) {
  auto spec = sweep::parseCampaign(kCampaignText, ".");
  const std::string canonical = spec.canonicalText();
  // Reparsing the canonical form must not change it (modulo the directives
  // canonicalText intentionally renders differently, so compare via a
  // second render of a fresh parse of the original).
  auto again = sweep::parseCampaign(kCampaignText, ".");
  EXPECT_EQ(canonical, again.canonicalText());
  EXPECT_NE(canonical.find("estimator iop-estimate/2"), std::string::npos);
}

TEST(CellKey, RespondsToEveryInput) {
  const std::string base =
      sweep::cellKey("est/1", "model-text", "config-id", 1.0, 1.0);
  EXPECT_EQ(base,
            sweep::cellKey("est/1", "model-text", "config-id", 1.0, 1.0));
  EXPECT_NE(base,
            sweep::cellKey("est/2", "model-text", "config-id", 1.0, 1.0));
  EXPECT_NE(base,
            sweep::cellKey("est/1", "model-text2", "config-id", 1.0, 1.0));
  EXPECT_NE(base,
            sweep::cellKey("est/1", "model-text", "config-id2", 1.0, 1.0));
  EXPECT_NE(base,
            sweep::cellKey("est/1", "model-text", "config-id", 4.0, 1.0));
  EXPECT_NE(base,
            sweep::cellKey("est/1", "model-text", "config-id", 1.0, 4.0));
}

TEST(CellResultIo, RoundTripsThroughText) {
  sweep::CellResult cell;
  cell.key = "00deadbeef001234";
  cell.modelLabel = "btio np4";  // labels may contain spaces
  cell.configLabel = "Configuration A";
  cell.degradeDisks = 4;
  cell.degradeNet = 1.5;
  cell.estimator = "iop-estimate/2";
  cell.np = 4;
  cell.weightBytes = 123456789;
  cell.timeIo = 12.25;
  cell.iorRuns = 7;
  cell.phases.push_back({1, 1, 1000, 5.5e6, 0.125});
  cell.phases.push_back({2, 1, 2000, 1.0e7, 0.25});

  const auto parsed = sweep::CellResult::parse(cell.render());
  EXPECT_EQ(parsed.render(), cell.render());
  EXPECT_EQ(parsed.modelLabel, cell.modelLabel);
  EXPECT_EQ(parsed.configLabel, cell.configLabel);
  EXPECT_EQ(parsed.phases.size(), 2u);
  EXPECT_DOUBLE_EQ(parsed.timeIo, 12.25);
  EXPECT_DOUBLE_EQ(parsed.phases[0].bandwidthCH, 5.5e6);

  EXPECT_THROW(sweep::CellResult::parse("not a cell"),
               std::invalid_argument);

  const auto capture = sweep::makeCellCapture(parsed);
  EXPECT_EQ(capture.app, cell.modelLabel);
  EXPECT_EQ(capture.config, cell.configLabel);
  EXPECT_DOUBLE_EQ(capture.makespan, cell.timeIo);
  ASSERT_EQ(capture.phases.size(), 2u);
  EXPECT_EQ(capture.phases[1].weightBytes, 2000u);
}

TEST(SweepExecutor, ParallelStoreIsByteIdenticalToSerial) {
  const auto campaign = resolveTestCampaign();
  ASSERT_EQ(campaign.planCells().size(), 12u);

  TempDir serial("serial");
  TempDir parallel("parallel");
  sweep::CampaignStore storeSerial(serial.path());
  sweep::CampaignStore storeParallel(parallel.path());

  sweep::SweepOptions serialOptions;
  serialOptions.jobs = 1;
  const auto serialOutcome =
      sweep::runSweep(campaign, storeSerial, serialOptions);
  EXPECT_EQ(serialOutcome.computed, 12u);
  EXPECT_EQ(serialOutcome.failures, 0u);

  sweep::SweepOptions parallelOptions;
  parallelOptions.jobs = 4;
  const auto parallelOutcome =
      sweep::runSweep(campaign, storeParallel, parallelOptions);
  EXPECT_EQ(parallelOutcome.computed, 12u);
  EXPECT_EQ(parallelOutcome.failures, 0u);

  const auto a = snapshotTree(serial.path());
  const auto b = snapshotTree(parallel.path());
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);  // identical file sets with identical bytes

  // Identical estimates, cell by cell, in canonical order.
  for (std::size_t i = 0; i < serialOutcome.cells.size(); ++i) {
    EXPECT_EQ(serialOutcome.cells[i].result.render(),
              parallelOutcome.cells[i].result.render());
  }
}

TEST(SweepExecutor, SecondRunIsAllCacheHits) {
  const auto campaign = resolveTestCampaign();
  TempDir dir("cache");
  sweep::CampaignStore store(dir.path());
  sweep::SweepOptions options;
  options.jobs = 2;

  const auto first = sweep::runSweep(campaign, store, options);
  EXPECT_EQ(first.computed, 12u);
  EXPECT_EQ(first.cacheHits, 0u);

  const auto before = snapshotTree(dir.path());
  const auto second = sweep::runSweep(campaign, store, options);
  EXPECT_EQ(second.computed, 0u);
  EXPECT_EQ(second.cacheHits, 12u);
  EXPECT_EQ(second.iorRuns, 0u);
  EXPECT_EQ(snapshotTree(dir.path()), before);  // nothing rewritten

  // --force recomputes everything and still lands on the same bytes.
  options.force = true;
  const auto forced = sweep::runSweep(campaign, store, options);
  EXPECT_EQ(forced.computed, 12u);
  EXPECT_EQ(snapshotTree(dir.path()), before);
}

TEST(SweepExecutor, ResumesAfterInterruption) {
  const auto campaign = resolveTestCampaign();
  TempDir full("full");
  TempDir killed("killed");
  sweep::SweepOptions options;
  options.jobs = 2;

  sweep::CampaignStore fullStore(full.path());
  sweep::runSweep(campaign, fullStore, options);
  const auto expected = snapshotTree(full.path());

  // Simulate a run killed mid-flight: some cells committed, some missing,
  // no manifest yet.
  sweep::CampaignStore killedStore(killed.path());
  sweep::runSweep(campaign, killedStore, options);
  const auto plan = campaign.planCells();
  std::filesystem::remove(killedStore.cellPath(plan[1].key));
  std::filesystem::remove(killedStore.capturePath(plan[1].key));
  std::filesystem::remove(killedStore.cellPath(plan[7].key));
  std::filesystem::remove(killedStore.capturePath(plan[7].key));
  std::filesystem::remove(killedStore.manifestPath());

  const auto resumed = sweep::runSweep(campaign, killedStore, options);
  EXPECT_EQ(resumed.cacheHits, 10u);
  EXPECT_EQ(resumed.computed, 2u);
  EXPECT_EQ(snapshotTree(killed.path()), expected);
}

TEST(SweepExecutor, RejectsMismatchedStoreUnlessForced) {
  const auto campaign = resolveTestCampaign();
  TempDir dir("mismatch");
  sweep::CampaignStore store(dir.path());
  sweep::SweepOptions options;
  sweep::runSweep(campaign, store, options);

  const auto other = resolveTestCampaign(
      "name other\napp example\nconfig A\nconfig B\n");
  sweep::CampaignStore reopened(dir.path());
  EXPECT_THROW(sweep::runSweep(other, reopened, options),
               std::runtime_error);

  options.force = true;  // replaces the store and recomputes
  const auto outcome = sweep::runSweep(other, reopened, options);
  EXPECT_EQ(outcome.computed, 2u);
  EXPECT_EQ(outcome.failures, 0u);
}

TEST(SweepExecutor, DeduplicatesIdenticalCells) {
  // "A" twice: distinct labels, identical cache keys -> one evaluation.
  const auto campaign =
      resolveTestCampaign("name dup\napp example\nconfig A\nconfig A\n");
  const auto plan = campaign.planCells();
  ASSERT_EQ(plan.size(), 2u);
  EXPECT_EQ(plan[0].key, plan[1].key);

  TempDir dir("dedup");
  sweep::CampaignStore store(dir.path());
  sweep::SweepOptions options;
  options.jobs = 2;
  const auto outcome = sweep::runSweep(campaign, store, options);
  EXPECT_EQ(outcome.computed, 2u);  // both cells resolved...
  EXPECT_EQ(outcome.cells[0].result.timeIo,
            outcome.cells[1].result.timeIo);
  EXPECT_EQ(outcome.iorRuns, outcome.cells[0].result.iorRuns);  // ...once
}

TEST(SweepExecutor, DegradationSlowsEstimates) {
  const auto campaign = resolveTestCampaign();
  TempDir dir("degrade");
  sweep::CampaignStore store(dir.path());
  sweep::SweepOptions options;
  options.jobs = 4;
  const auto outcome = sweep::runSweep(campaign, store, options);

  // For a fixed (model, config), any degradation must not speed I/O up,
  // and degrading both axes must strictly slow the healthy estimate.
  std::map<std::string, std::map<std::pair<double, double>, double>> grid;
  for (const auto& cell : outcome.cells) {
    grid[cell.result.configLabel][{cell.spec.degradeDisks,
                                   cell.spec.degradeNet}] =
        cell.result.timeIo;
  }
  for (const auto& [config, cells] : grid) {
    const double healthy = cells.at({1, 1});
    EXPECT_GT(healthy, 0) << config;
    for (const auto& [factors, timeIo] : cells) {
      EXPECT_GE(timeIo, healthy * 0.999) << config;
    }
    EXPECT_GT(cells.at({4, 4}), healthy) << config;
  }
}

TEST(SweepStore, GcDropsOrphanedCells) {
  const auto campaign = resolveTestCampaign();
  TempDir dir("gc");
  sweep::CampaignStore store(dir.path());
  sweep::SweepOptions options;
  sweep::runSweep(campaign, store, options);

  std::set<std::string> live;
  const auto plan = campaign.planCells();
  for (std::size_t i = 0; i < plan.size(); ++i) {
    if (i % 2 == 0) live.insert(plan[i].key);
  }
  // 6 dropped keys x (cell + capture) = 12 files.
  EXPECT_EQ(store.gc(live), 12u);
  for (std::size_t i = 0; i < plan.size(); ++i) {
    EXPECT_EQ(store.hasCell(plan[i].key), i % 2 == 0);
  }
  EXPECT_EQ(store.gc(live), 0u);  // idempotent
}

/// The bytes of one file.
std::string readBytes(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(SweepStore, CommitsCapturesInTheV2Encoding) {
  const auto campaign = resolveTestCampaign(
      "name captures-v2\napp example\nconfig A\nconfig B\n");
  TempDir dir("captures_v2");
  sweep::CampaignStore store(dir.path());
  const auto outcome = sweep::runSweep(campaign, store, {});
  ASSERT_EQ(outcome.computed, 2u);
  for (const auto& cell : outcome.cells) {
    const std::string bytes = readBytes(store.capturePath(cell.spec.key));
    EXPECT_EQ(bytes.rfind("iop-capture v2\n", 0), 0u) << cell.spec.key;
    const auto expected = sweep::makeCellCapture(cell.result);
    const auto back = obs::RunCapture::parse(bytes);
    EXPECT_EQ(back.app, expected.app);
    EXPECT_EQ(back.np, expected.np);
    EXPECT_EQ(back.config, expected.config);
    EXPECT_EQ(back.makespan, expected.makespan);
    ASSERT_EQ(back.phases.size(), expected.phases.size());
    for (std::size_t i = 0; i < back.phases.size(); ++i) {
      EXPECT_EQ(back.phases[i].id, expected.phases[i].id);
      EXPECT_EQ(back.phases[i].familyId, expected.phases[i].familyId);
      EXPECT_EQ(back.phases[i].weightBytes, expected.phases[i].weightBytes);
      EXPECT_EQ(back.phases[i].ioSeconds, expected.phases[i].ioSeconds);
      EXPECT_EQ(back.phases[i].bandwidth, expected.phases[i].bandwidth);
      EXPECT_EQ(back.phases[i].label, expected.phases[i].label);
    }
    EXPECT_EQ(back.metricsCsv, expected.metricsCsv);
  }
}

TEST(SweepStore, OlderStoresWithV1CapturesStayValid) {
  const auto campaign = resolveTestCampaign(
      "name captures-v1\napp example\nconfig A\nconfig B\n");
  TempDir dir("captures_v1");
  sweep::CampaignStore store(dir.path());
  sweep::runSweep(campaign, store, {});
  // A store written by an older build: its captures are v1 text.
  const auto key = campaign.planCells().front().key;
  std::ofstream(store.capturePath(key), std::ios::binary)
      << fixture::kSampleCaptureV1;
  const auto before = snapshotTree(dir.path());

  sweep::FsckOptions deep;
  deep.deep = true;
  deep.expectedCampaign = campaign.spec.canonicalText();
  const auto report = sweep::fsckCampaignStore(dir.path(), deep);
  EXPECT_TRUE(report.clean()) << report.render("v1 store");

  // A resume reuses every cell and leaves the v1 capture as it is.
  const auto resumed = sweep::runSweep(campaign, store, {});
  EXPECT_EQ(resumed.cacheHits, 2u);
  EXPECT_EQ(resumed.quarantined, 0u);
  EXPECT_FALSE(std::filesystem::exists(dir.path() / "quarantine"));
  EXPECT_EQ(snapshotTree(dir.path()), before);
}

TEST(SweepRank, OrdersByTimeIoAndMarksSelection) {
  const auto campaign = resolveTestCampaign();
  TempDir dir("rank");
  sweep::CampaignStore store(dir.path());
  sweep::SweepOptions options;
  options.jobs = 4;
  const auto outcome = sweep::runSweep(campaign, store, options);

  const auto groups = sweep::rankOutcome(campaign, outcome);
  ASSERT_EQ(groups.size(), 6u);  // 2 disk x 3 net fault scenarios
  for (const auto& group : groups) {
    ASSERT_EQ(group.entries.size(), 2u);
    EXPECT_EQ(group.entries[0].rank, 1u);
    EXPECT_TRUE(group.entries[0].selected);
    EXPECT_FALSE(group.entries[1].selected);
    EXPECT_LE(group.entries[0].cell->result.timeIo,
              group.entries[1].cell->result.timeIo);
  }
  const std::string report = sweep::renderReport(campaign, outcome);
  EXPECT_NE(report.find("<== selected"), std::string::npos);
  EXPECT_NE(report.find("Sweep ranking"), std::string::npos);
}

TEST(SweepConfig, BuildRejectsBadDegradation) {
  const auto campaign = resolveTestCampaign();
  const auto& config = campaign.configs[0];
  EXPECT_THROW(config.build(0.5, 1.0), std::invalid_argument);
  EXPECT_THROW(config.build(1.0, 0.5), std::invalid_argument);
  auto healthy = config.build(1.0, 1.0);
  EXPECT_FALSE(healthy.topology->allNodes().empty());
}

TEST(SweepDigest, GoldenCampaignDigestIsStable) {
  // Captured from the binary-heap scheduler before the calendar queue
  // landed: every cell of a 12-cell campaign, characterization included,
  // must render byte-identical results on the new engine.  The trailing
  // `checksum` seal is stripped before hashing — it is derived from the
  // other bytes, and dropping it keeps the golden value comparable all
  // the way back to stores written before cells were checksummed.
  const auto campaign = resolveTestCampaign(
      "name digest-probe\n"
      "app example\n"
      "config A\n"
      "config B\n"
      "degrade-disks 1 4\n"
      "degrade-net 1 2 4\n");
  std::uint64_t h = 1469598103934665603ULL;
  for (const auto& cell : campaign.planCells()) {
    std::string bytes = sweep::evaluateCell(campaign, cell).render();
    const auto seal = bytes.find("\nchecksum ");
    if (seal != std::string::npos) {
      const auto lineEnd = bytes.find('\n', seal + 1);
      bytes.erase(seal, lineEnd - seal);
    }
    for (const unsigned char c : bytes) {
      h ^= c;
      h *= 1099511628211ULL;
    }
  }
  EXPECT_EQ(h, 0x3a83b0aec3e4ac97ULL);
}

TEST(CampaignResolve, ParallelCharacterizationMatchesSerial) {
  // Two app entries so the worker pool has real fan-out; exercised under
  // TSan in CI (tools/ci.sh) to prove the characterization runs share no
  // state.
  const char* text =
      "name par-resolve\n"
      "app example\n"
      "app example np=2\n"
      "config A\n";
  const auto spec = sweep::parseCampaign(text, ".");

  sweep::ResolveOptions serial;
  serial.jobs = 1;
  const auto a = sweep::resolveCampaign(spec, serial);
  sweep::ResolveOptions parallel;
  parallel.jobs = 4;
  const auto b = sweep::resolveCampaign(spec, parallel);

  EXPECT_EQ(a.characterized, 2u);
  EXPECT_EQ(b.characterized, 2u);
  ASSERT_EQ(a.models.size(), b.models.size());
  for (std::size_t i = 0; i < a.models.size(); ++i) {
    EXPECT_EQ(a.models[i].label, b.models[i].label);
    EXPECT_EQ(a.models[i].contentText, b.models[i].contentText);
  }
}

TEST(CampaignResolve, ModelCacheAvoidsRecharacterization) {
  TempDir cache("modelcache");
  const auto spec = sweep::parseCampaign(
      "name cached-resolve\napp example\nconfig A\n", ".");
  sweep::ResolveOptions options;
  options.modelCacheDirs.push_back(cache.path());

  const auto first = sweep::resolveCampaign(spec, options);
  EXPECT_EQ(first.characterized, 1u);
  EXPECT_EQ(first.modelCacheHits, 0u);

  const auto second = sweep::resolveCampaign(spec, options);
  EXPECT_EQ(second.characterized, 0u);
  EXPECT_EQ(second.modelCacheHits, 1u);
  // The cached model round-trips to the same canonical text, so cell keys
  // are unchanged.
  ASSERT_EQ(first.models.size(), 1u);
  ASSERT_EQ(second.models.size(), 1u);
  EXPECT_EQ(first.models[0].contentText, second.models[0].contentText);
  ASSERT_EQ(first.planCells().size(), second.planCells().size());
  EXPECT_EQ(first.planCells()[0].key, second.planCells()[0].key);

  // reuse=false ignores the cache and characterizes again.
  sweep::ResolveOptions fresh = options;
  fresh.reuse = false;
  const auto third = sweep::resolveCampaign(spec, fresh);
  EXPECT_EQ(third.characterized, 1u);
  EXPECT_EQ(third.modelCacheHits, 0u);
  EXPECT_EQ(third.models[0].contentText, first.models[0].contentText);
}

TEST(CampaignResolve, SharedModelHitIsCopiedIntoTheStore) {
  TempDir shared("sharedmodel_pool");
  TempDir storeDir("sharedmodel_store");
  const auto spec = sweep::parseCampaign(
      "name shared-model\napp example\nconfig A\n", ".");
  sweep::CellPool pool(shared.path());
  sweep::CampaignStore store(storeDir.path());

  // Only the shared pool holds the model.
  sweep::ResolveOptions poolOnly;
  poolOnly.modelCacheDirs.push_back(pool.modelDir());
  ASSERT_EQ(sweep::resolveCampaign(spec, poolOnly).characterized, 1u);
  const auto sharedModels = snapshotTree(pool.modelDir());
  ASSERT_EQ(sharedModels.size(), 1u);

  // Resolving with the store ahead of the pool hits the pool and copies
  // the model into the store byte for byte.
  sweep::ResolveOptions both;
  both.modelCacheDirs = {store.modelDir(), pool.modelDir()};
  const auto adopted = sweep::resolveCampaign(spec, both);
  EXPECT_EQ(adopted.characterized, 0u);
  EXPECT_EQ(adopted.modelCacheHits, 1u);
  ASSERT_TRUE(std::filesystem::exists(store.modelDir()));
  EXPECT_EQ(snapshotTree(store.modelDir()), sharedModels);

  // The store alone now serves the model: nothing is characterized again.
  sweep::ResolveOptions storeOnly;
  storeOnly.modelCacheDirs.push_back(store.modelDir());
  const auto again = sweep::resolveCampaign(spec, storeOnly);
  EXPECT_EQ(again.characterized, 0u);
  EXPECT_EQ(again.modelCacheHits, 1u);
  ASSERT_EQ(again.models.size(), 1u);
  EXPECT_EQ(again.models[0].contentText, adopted.models[0].contentText);
}

TEST(SweepExecutor, SharedStoreReusesAcrossCampaigns) {
  TempDir shared("sharedpool");
  const auto first = resolveTestCampaign(
      "name shared-a\napp example\nconfig A\nconfig B\n");
  const auto second = resolveTestCampaign(
      "name shared-b\napp example\nconfig B\nconfig C\n");

  sweep::SweepOptions options;
  options.jobs = 2;
  options.sharedStore = shared.path().string();

  TempDir storeA("shared_s1");
  sweep::CampaignStore s1(storeA.path());
  const auto outcomeA = sweep::runSweep(first, s1, options);
  EXPECT_EQ(outcomeA.computed, 2u);
  EXPECT_EQ(outcomeA.sharedHits, 0u);

  // The overlapping cell (example @ B) comes out of the shared pool.
  TempDir storeB("shared_s2");
  sweep::CampaignStore s2(storeB.path());
  const auto outcomeB = sweep::runSweep(second, s2, options);
  EXPECT_EQ(outcomeB.computed, 1u);
  EXPECT_EQ(outcomeB.cacheHits, 1u);
  EXPECT_EQ(outcomeB.sharedHits, 1u);

  // A third store for the same campaign is served entirely from the pool
  // and ends up byte-identical to the computed one.
  TempDir storeC("shared_s3");
  sweep::CampaignStore s3(storeC.path());
  const auto outcomeC = sweep::runSweep(second, s3, options);
  EXPECT_EQ(outcomeC.computed, 0u);
  EXPECT_EQ(outcomeC.cacheHits, 2u);
  EXPECT_EQ(outcomeC.sharedHits, 2u);
  EXPECT_EQ(snapshotTree(storeB.path()), snapshotTree(storeC.path()));

  // Adopted cells pass the store's key check when read back.
  sweep::CellPool pool(shared.path());
  for (const auto& cell : second.planCells()) {
    ASSERT_TRUE(pool.hasCell(cell.key));
    const auto loaded = pool.tryLoadCell(cell.key);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded->key, cell.key);
  }
}

// ------------------------------------------------------ fault axis

/// Write `text` to `dir/name` and return the path.
std::filesystem::path writeFile(const std::filesystem::path& dir,
                                const std::string& name,
                                const std::string& text) {
  std::filesystem::create_directories(dir);
  const auto path = dir / name;
  std::ofstream out(path, std::ios::binary);
  out << text;
  return path;
}

constexpr const char* kFlakyPlanText =
    "policy timeout=20ms retries=6 backoff=1ms max-backoff=32ms "
    "jitter=0.25\n"
    "disk * transient-error p=0.2\n";

/// A campaign with a fault axis: healthy baseline + 2 seeded replicas of
/// a flaky-disk plan, over 2 configs -> 2 * (1 + 2) = 6 cells.
sweep::ResolvedCampaign resolveFaultCampaign(const TempDir& dir) {
  writeFile(dir.path(), "flaky.fault", kFlakyPlanText);
  const std::string text =
      "name fault-axis\n"
      "app example\n"
      "config A\n"
      "config B\n"
      "faultplan none\n"
      "faultplan file=flaky.fault\n"
      "fault-seeds 2\n";
  return sweep::resolveCampaign(sweep::parseCampaign(text, dir.path()));
}

TEST(CampaignParse, FaultAxisParsesAndCanonicalizes) {
  TempDir dir("faultparse");
  const auto campaign = resolveFaultCampaign(dir);
  ASSERT_EQ(campaign.spec.faults.size(), 2u);
  EXPECT_TRUE(campaign.spec.faults[0].none());
  EXPECT_EQ(campaign.spec.faults[1].label, "flaky");
  EXPECT_EQ(campaign.spec.faultSeeds, 2);
  EXPECT_TRUE(campaign.spec.hasFaultAxis());
  ASSERT_EQ(campaign.faults.size(), 2u);
  EXPECT_FALSE(campaign.faults[1].planText.empty());

  const std::string canonical = campaign.spec.canonicalText();
  EXPECT_NE(canonical.find("faultplan none none"), std::string::npos);
  EXPECT_NE(canonical.find("fault-seeds 2"), std::string::npos);

  // 2 configs x (healthy + 2 seeded flaky replicas).
  const auto plan = campaign.planCells();
  ASSERT_EQ(plan.size(), 6u);
  std::size_t faulted = 0;
  for (const auto& cell : plan) {
    if (!cell.faulted()) continue;
    ++faulted;
    EXPECT_NE(campaign.cellTitle(cell).find("fault=flaky"),
              std::string::npos);
  }
  EXPECT_EQ(faulted, 4u);

  // Malformed fault directives fail loudly.
  EXPECT_THROW(sweep::parseCampaign(
                   "app example\nconfig A\nfaultplan bogus\n", "."),
               std::invalid_argument);
  EXPECT_THROW(sweep::parseCampaign(
                   "app example\nconfig A\nfault-seeds 0\n", "."),
               std::invalid_argument);
}

TEST(CampaignParse, NoFaultAxisKeepsLegacyIdentity) {
  // A campaign that never mentions faults must canonicalize and key
  // byte-identically to pre-fault stores (the back-compat gate).
  auto spec = sweep::parseCampaign(kCampaignText, ".");
  EXPECT_FALSE(spec.hasFaultAxis());
  EXPECT_EQ(spec.canonicalText().find("faultplan"), std::string::npos);
  EXPECT_EQ(spec.canonicalText().find("fault-seeds"), std::string::npos);
  EXPECT_EQ(sweep::cellKey("est/1", "m", "c", 1.0, 1.0),
            sweep::cellKey("est/1", "m", "c", 1.0, 1.0, "", 0));
}

TEST(CellKey, RespondsToFaultPlanAndSeed) {
  const std::string base =
      sweep::cellKey("est/1", "m", "c", 1.0, 1.0, "plan-a", 1);
  EXPECT_EQ(base, sweep::cellKey("est/1", "m", "c", 1.0, 1.0, "plan-a", 1));
  EXPECT_NE(base, sweep::cellKey("est/1", "m", "c", 1.0, 1.0, "plan-b", 1));
  EXPECT_NE(base, sweep::cellKey("est/1", "m", "c", 1.0, 1.0, "plan-a", 2));
  EXPECT_NE(base, sweep::cellKey("est/1", "m", "c", 1.0, 1.0));
}

TEST(CellKey, LiteralKeysArePinned) {
  // Keys name the committed cells of every existing store, so the hashed
  // bytes must never change: pin an unfaulted and a faulted key by value.
  EXPECT_EQ(sweep::cellKey("est/1", "m", "c", 1.0, 1.0), "6bbc5e6d88419d0e");
  EXPECT_EQ(sweep::cellKey("est/1", "m", "c", 1.0, 1.0, "plan-a", 1),
            "b5d73cdfffff94a4");
  EXPECT_EQ(sweep::cellKey(sweep::kEstimatorVersion, "m", "c", 4.0, 0.5),
            "17d795d47c360943");
}

TEST(SweepExecutor, FaultAxisEndToEndDeterministicAndCached) {
  TempDir dir("faultaxis");
  const auto campaign = resolveFaultCampaign(dir);

  TempDir serial("fault_serial");
  TempDir parallel("fault_parallel");
  sweep::CampaignStore storeSerial(serial.path());
  sweep::CampaignStore storeParallel(parallel.path());

  sweep::SweepOptions options;
  options.jobs = 1;
  const auto first = sweep::runSweep(campaign, storeSerial, options);
  EXPECT_EQ(first.computed, 6u);
  EXPECT_EQ(first.failures, 0u);

  options.jobs = 4;
  const auto par = sweep::runSweep(campaign, storeParallel, options);
  EXPECT_EQ(par.computed, 6u);
  // Same plan + seed must land on bit-identical stores at any -j.
  EXPECT_EQ(snapshotTree(serial.path()), snapshotTree(parallel.path()));

  // Faulted replicas hit the cache like any other cell.
  const auto second = sweep::runSweep(campaign, storeSerial, options);
  EXPECT_EQ(second.computed, 0u);
  EXPECT_EQ(second.cacheHits, 6u);

  // Faulted cells carry their accounting through the store round-trip.
  bool sawFaulted = false;
  for (const auto& cell : second.cells) {
    if (!cell.spec.faulted()) continue;
    sawFaulted = true;
    EXPECT_EQ(cell.result.estimator, sweep::kFaultEstimatorVersion);
    EXPECT_EQ(cell.result.faultLabel, "flaky");
    EXPECT_EQ(cell.result.faultSeed, cell.spec.faultSeed);
    EXPECT_GT(cell.result.faultRetries, 0u);
    EXPECT_EQ(cell.result.iorRuns, 0u);  // degraded cells never run IOR
  }
  EXPECT_TRUE(sawFaulted);

  // Ranking: healthy group + faulted group, the latter aggregated over
  // seeds and ranked by median degraded Time_io.
  const auto groups = sweep::rankOutcome(campaign, second);
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_FALSE(groups[0].faulted);
  EXPECT_TRUE(groups[1].faulted);
  ASSERT_EQ(groups[1].entries.size(), 2u);
  for (const auto& entry : groups[1].entries) {
    EXPECT_EQ(entry.seeds, 2u);
    EXPECT_EQ(entry.okSeeds, 2u);
    EXPECT_GT(entry.timeIo, 0.0);
  }
  EXPECT_LE(groups[1].entries[0].timeIo, groups[1].entries[1].timeIo);
  const std::string report = sweep::renderReport(campaign, second);
  EXPECT_NE(report.find("[fault=flaky]"), std::string::npos);
  EXPECT_NE(report.find("median Time_io (s)"), std::string::npos);
  EXPECT_NE(report.find("seeds ok"), std::string::npos);
}

// -------------------------------------------------- store integrity

TEST(SweepStore, ChecksumSealsEveryCell) {
  sweep::CellResult cell;
  cell.key = "00deadbeef001234";
  cell.modelLabel = "m";
  cell.configLabel = "c";
  cell.estimator = "iop-estimate/2";
  cell.timeIo = 12.25;
  const std::string text = cell.render();
  EXPECT_NE(text.find("\nchecksum "), std::string::npos);
  // The rendered text round-trips; a flipped digit inside a value does
  // not parse even though the line itself is still well-formed.
  EXPECT_EQ(sweep::CellResult::parse(text).render(), text);
  std::string tampered = text;
  const auto pos = tampered.find("12.25");
  ASSERT_NE(pos, std::string::npos);
  tampered[pos] = '9';
  try {
    sweep::CellResult::parse(tampered);
    FAIL() << "tampered cell must not parse";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos);
  }
  // Legacy cells (written before checksums) still load.
  std::string legacy = text;
  const auto sumPos = legacy.find("\nchecksum ");
  legacy = legacy.substr(0, sumPos + 1) + "end\n";
  EXPECT_DOUBLE_EQ(sweep::CellResult::parse(legacy).timeIo, 12.25);
}

TEST(SweepStore, CorruptCellsAreQuarantinedAndRecomputed) {
  const auto campaign = resolveTestCampaign(
      "name quarantine\napp example\nconfig A\nconfig B\n");
  TempDir dir("quarantine");
  sweep::CampaignStore store(dir.path());
  sweep::SweepOptions options;
  sweep::runSweep(campaign, store, options);
  const auto expected = snapshotTree(dir.path());

  // Torn write: truncate one committed cell mid-file.
  const auto plan = campaign.planCells();
  const auto victim = store.cellPath(plan[0].key);
  std::string bytes;
  {
    std::ifstream in(victim, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    bytes = buffer.str();
  }
  std::ofstream(victim, std::ios::binary) << bytes.substr(0, bytes.size() / 2);

  std::string whyBad;
  EXPECT_FALSE(store.tryLoadCell(plan[0].key, &whyBad).has_value());
  EXPECT_FALSE(whyBad.empty());
  EXPECT_FALSE(std::filesystem::exists(victim));  // moved aside...
  EXPECT_TRUE(std::filesystem::exists(dir.path() / "quarantine"));

  // ...and the next run recomputes it, converging back on the same bytes
  // (minus the quarantine folder).
  const auto outcome = sweep::runSweep(campaign, store, options);
  EXPECT_EQ(outcome.computed, 1u);
  EXPECT_EQ(outcome.quarantined, 0u);  // already quarantined above
  EXPECT_EQ(outcome.failures, 0u);
  auto after = snapshotTree(dir.path());
  for (auto it = after.begin(); it != after.end();) {
    it = it->first.rfind("quarantine/", 0) == 0 ? after.erase(it) : ++it;
  }
  EXPECT_EQ(after, expected);
}

// ------------------------------------------------- graceful shutdown

TEST(SweepExecutor, CancelSkipsUntakenCellsAndResumeConverges) {
  const auto campaign = resolveTestCampaign(
      "name cancel\napp example\nconfig A\nconfig B\n"
      "degrade-disks 1 4\n");
  ASSERT_EQ(campaign.planCells().size(), 4u);

  TempDir full("cancel_full");
  sweep::CampaignStore fullStore(full.path());
  sweep::SweepOptions plain;
  sweep::runSweep(campaign, fullStore, plain);
  const auto expected = snapshotTree(full.path());

  // Cancel after the first completed cell: in-flight work is committed,
  // untaken cells are reported skipped, and the exit is resumable.
  TempDir killed("cancel_killed");
  sweep::CampaignStore killedStore(killed.path());
  std::atomic<bool> cancel{false};
  sweep::SweepOptions interruptible;
  interruptible.jobs = 1;
  interruptible.cancel = &cancel;
  interruptible.onCellDone = [&](const sweep::CellOutcome&) {
    cancel.store(true);
  };
  const auto interrupted =
      sweep::runSweep(campaign, killedStore, interruptible);
  EXPECT_TRUE(interrupted.interrupted);
  EXPECT_FALSE(interrupted.ok());
  EXPECT_EQ(interrupted.computed, 1u);
  EXPECT_EQ(interrupted.skipped, 3u);
  std::size_t skippedCells = 0;
  for (const auto& cell : interrupted.cells) {
    if (cell.status == sweep::CellOutcome::Status::Skipped) {
      ++skippedCells;
      EXPECT_NE(cell.error.find("resume"), std::string::npos);
    }
  }
  EXPECT_EQ(skippedCells, 3u);

  // Resume finishes the remainder and lands on the uninterrupted bytes.
  const auto resumed = sweep::runSweep(campaign, killedStore, plain);
  EXPECT_TRUE(resumed.ok());
  EXPECT_EQ(resumed.cacheHits, 1u);
  EXPECT_EQ(resumed.computed, 3u);
  EXPECT_EQ(snapshotTree(killed.path()), expected);
}

// --- runtime telemetry --------------------------------------------------

std::string readFileText(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

bool hasLine(const std::string& text, const std::string& line) {
  return ("\n" + text).find("\n" + line + "\n") != std::string::npos;
}

TEST(RuntimeTelemetry, ConcurrentInstrumentUpdatesAreLossless) {
  // The hot-path contract: every worker may claim and commit cells
  // concurrently while the snapshot thread renders the registry every
  // 10 ms, and no update is lost.  (The TSan CI flavor builds exactly
  // this test binary.)
  TempDir dir("tele_concurrent");
  sweep::TelemetryConfig config;
  config.telemetryOut = (dir.path() / "metrics.prom").string();
  config.telemetryIntervalMs = 10;
  config.execTraceOut = (dir.path() / "trace.json").string();
  sweep::SweepTelemetry telemetry(config);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 2000;
  const auto drive = [&](bool commit) {
    std::vector<std::thread> pool;
    for (int t = 0; t < kThreads; ++t) {
      pool.emplace_back([&, t] {
        const auto worker = static_cast<std::size_t>(t);
        for (int i = 0; i < kPerThread; ++i) {
          const std::string cell = "c" + std::to_string(i);
          if (!commit) {
            telemetry.cellClaim(worker, cell, "k");
            continue;
          }
          const double t0 = telemetry.now();
          telemetry.cellCommit(worker, cell, "k", t0,
                               t0 + 0.005 * ((t + i) % 3 + 1),
                               t0 + 0.02, 1.0, 1, i % 7 == 0);
        }
      });
    }
    // Readers race the writers too, not only the snapshot thread.
    for (int i = 0; i < 20; ++i) {
      const std::string text = telemetry.renderProm();
      EXPECT_TRUE(text.empty() || text.back() == '\n');
    }
    for (auto& th : pool) th.join();
  };
  const auto total = std::to_string(kThreads * kPerThread);
  drive(/*commit=*/false);
  EXPECT_TRUE(hasLine(telemetry.renderProm(),
                      "iop_sweep_workers_busy " + total));
  drive(/*commit=*/true);
  telemetry.finish();

  const std::string prom = readFileText(config.telemetryOut);
  EXPECT_EQ(prom, telemetry.renderProm());  // the final snapshot landed
  EXPECT_TRUE(hasLine(prom, "iop_sweep_computed_total " + total)) << prom;
  EXPECT_TRUE(hasLine(prom, "iop_sweep_replay_seconds_count " + total));
  EXPECT_TRUE(hasLine(prom, "iop_sweep_commit_seconds_count " + total));
  EXPECT_TRUE(hasLine(prom, "iop_sweep_replay_seconds_bucket{le=\"+Inf\"} " +
                                total));
  EXPECT_TRUE(hasLine(prom, "iop_sweep_workers_busy 0"));
  const auto computed = telemetry.counterValue("sweep.computed");
  ASSERT_TRUE(computed.has_value());
  EXPECT_EQ(*computed, kThreads * kPerThread);
  EXPECT_TRUE(std::filesystem::exists(config.execTraceOut));
}

TEST(ObsRuntime, SnapshotterWritesFinalSnapshotOnStop) {
  TempDir dir("tele_snapshot");
  sweep::TelemetryConfig config;
  config.telemetryOut = (dir.path() / "m.prom").string();
  config.telemetryIntervalMs = 50;
  {
    sweep::SweepTelemetry telemetry(config);
    // The file exists from t=0, not only after one interval.
    EXPECT_TRUE(std::filesystem::exists(config.telemetryOut));
    telemetry.workerSpawn(0);
    telemetry.workerSpawn(1);
    telemetry.finish();  // stops the thread and writes one final snapshot
    EXPECT_TRUE(hasLine(readFileText(config.telemetryOut),
                        "iop_sweep_worker_spawns_total 2"));
    telemetry.workerSpawn(2);
    telemetry.finish();  // idempotent: no second snapshot
  }
  EXPECT_TRUE(hasLine(readFileText(config.telemetryOut),
                      "iop_sweep_worker_spawns_total 2"));
  {
    sweep::SweepTelemetry telemetry(config);
    telemetry.cellsSkipped(3);
  }  // destruction finishes too
  EXPECT_TRUE(hasLine(readFileText(config.telemetryOut),
                      "iop_sweep_skipped_total 3"));
}

TEST(RuntimeTelemetry, IntervalBelowTenMillisecondsIsRejected) {
  // iop-sweep rejects --telemetry-interval-ms < 10 with its own
  // diagnostic; a library caller gets the same floor as an exception
  // instead of a silent clamp, before any file is opened.
  TempDir dir("tele_interval");
  sweep::TelemetryConfig config;
  config.journalPath = (dir.path() / "journal" / "run-1-1.jsonl").string();
  config.telemetryOut = (dir.path() / "m.prom").string();
  for (const int ms : {9, 0, -5}) {
    config.telemetryIntervalMs = ms;
    EXPECT_THROW(sweep::SweepTelemetry{config}, std::invalid_argument) << ms;
  }
  EXPECT_FALSE(std::filesystem::exists(dir.path()));
  config.telemetryIntervalMs = 10;
  EXPECT_NO_THROW(sweep::SweepTelemetry{config});
  EXPECT_TRUE(std::filesystem::exists(config.telemetryOut));
}

TEST(RuntimeTelemetry, ProgressMeterCountsEvaluatedCellsOnly) {
  // Satellite invariant: cache/shared hits never inflate `done`, so a
  // resume that recomputes 4 of 10 cells reports 0..4, not 6..10.
  sweep::ProgressMeter meter(false);
  // 10 cells, 6 already served from caches (2 of those via the shared
  // store), 4 pending for evaluation on 2 workers.
  meter.begin(/*cells=*/10, /*cached=*/6, /*shared=*/2, /*pending=*/4,
              /*workers=*/2);
  EXPECT_EQ(meter.doneCells(), 0u);
  EXPECT_DOUBLE_EQ(meter.hitRate(), 0.6);
  meter.claim();
  meter.cellDone(2.0, /*failed=*/false);
  meter.release();
  meter.claim();
  meter.cellDone(4.0, /*failed=*/true);  // failures still count as done
  meter.release();
  EXPECT_EQ(meter.doneCells(), 2u);
  // EWMA (alpha = 0.3) seeded by the first sample: 0.3*4 + 0.7*2 = 2.6.
  EXPECT_NEAR(meter.ewmaSeconds(), 2.6, 1e-9);
  // 2 pending cells left across 2 workers -> one EWMA interval.
  EXPECT_NEAR(meter.etaSeconds(), 2.6, 1e-9);
  const std::string line = meter.renderLine();
  EXPECT_NE(line.find("2/4"), std::string::npos);
  meter.finish();
}

TEST(RuntimeTelemetry, SweepWithTelemetryIsByteIdenticalToWithout) {
  // The subsystem's reason to exist is that it may not exist: a store
  // written with the full telemetry stack on must be byte-identical to
  // one written with it off, journal directory aside.
  const auto campaign = resolveTestCampaign();
  TempDir plainDir("tele_off");
  TempDir teleDir("tele_on");
  TempDir sidecars("tele_sidecars");
  std::filesystem::create_directories(sidecars.path());

  sweep::CampaignStore plainStore(plainDir.path());
  sweep::SweepOptions plainOptions;
  plainOptions.jobs = 3;
  const auto plain = sweep::runSweep(campaign, plainStore, plainOptions);
  EXPECT_EQ(plain.computed, 12u);

  sweep::TelemetryConfig config;
  config.journalPath =
      (teleDir.path() / "journal" / "run-1-1.jsonl").string();
  config.telemetryOut = (sidecars.path() / "metrics.prom").string();
  config.telemetryIntervalMs = 10;
  config.execTraceOut = (sidecars.path() / "trace.json").string();
  sweep::SweepTelemetry telemetry(config);
  telemetry.campaignStart(campaign.spec.name,
                          sweep::hashHex(campaign.spec.canonicalText()),
                          3);
  sweep::CampaignStore teleStore(teleDir.path());
  sweep::SweepOptions teleOptions;
  teleOptions.jobs = 3;
  teleOptions.telemetry = &telemetry;
  const auto instrumented =
      sweep::runSweep(campaign, teleStore, teleOptions);
  EXPECT_EQ(instrumented.computed, 12u);
  telemetry.finish();

  auto observed = snapshotTree(teleDir.path());
  std::size_t journalFiles = 0;
  for (auto it = observed.begin(); it != observed.end();) {
    if (it->first.rfind("journal", 0) == 0) {
      ++journalFiles;
      it = observed.erase(it);
    } else {
      ++it;
    }
  }
  EXPECT_EQ(journalFiles, 1u);
  EXPECT_EQ(observed, snapshotTree(plainDir.path()));

  // Identical estimates cell by cell, and the sidecar files materialized.
  for (std::size_t i = 0; i < plain.cells.size(); ++i) {
    EXPECT_EQ(plain.cells[i].result.render(),
              instrumented.cells[i].result.render());
  }
  EXPECT_TRUE(
      std::filesystem::exists(sidecars.path() / "metrics.prom"));
  EXPECT_TRUE(std::filesystem::exists(sidecars.path() / "trace.json"));

  // The journal both parses and analyzes as a complete, healthy run.
  const auto parsed = obs::loadJournal(config.journalPath);
  EXPECT_EQ(parsed.badLines, 0u);
  const auto pm = sweep::analyzeJournal(parsed);
  EXPECT_TRUE(pm.complete);
  EXPECT_FALSE(pm.interrupted);
  EXPECT_EQ(pm.commits, 12u);
  EXPECT_EQ(pm.campaign, "sweep-test");
  EXPECT_TRUE(pm.inFlight.empty());

  // Metrics agree with the executor's own accounting.
  const auto computed = telemetry.counterValue("sweep.computed");
  ASSERT_TRUE(computed.has_value());
  EXPECT_EQ(*computed, 12u);
  const auto commits = telemetry.counterValue("store.cell_commits");
  ASSERT_TRUE(commits.has_value());
  EXPECT_EQ(*commits, 12u);
}

TEST(Postmortem, ReconstructsInFlightCellsFromTornJournal) {
  // A journal as a SIGKILLed -j2 run leaves it: two claims open, one
  // commit, one failure, and a torn final line.
  const std::string journal =
      "{\"t\":0.0,\"event\":\"journal_start\",\"schema\":\"iop-journal/1\","
      "\"unix_ms\":1700000000000,\"pid\":4242}\n"
      "{\"t\":0.1,\"event\":\"campaign_start\",\"campaign\":\"pm-test\","
      "\"config\":\"deadbeefdeadbeef\",\"jobs\":2}\n"
      "{\"t\":0.2,\"event\":\"exec_start\",\"cells\":6,\"cached\":1,"
      "\"shared\":0,\"pending\":5,\"workers\":2}\n"
      "{\"t\":0.2,\"event\":\"cache_hit\",\"cell\":\"m @ A\",\"key\":\"k0\"}\n"
      "{\"t\":0.3,\"event\":\"worker_spawn\",\"worker\":0}\n"
      "{\"t\":0.3,\"event\":\"cell_claim\",\"worker\":0,\"cell\":\"m @ B\","
      "\"key\":\"k1\"}\n"
      "{\"t\":0.3,\"event\":\"worker_spawn\",\"worker\":1}\n"
      "{\"t\":0.4,\"event\":\"cell_claim\",\"worker\":1,\"cell\":\"m @ C\","
      "\"key\":\"k2\"}\n"
      "{\"t\":0.9,\"event\":\"cell_commit\",\"worker\":0,\"cell\":\"m @ B\","
      "\"key\":\"k1\",\"seconds\":0.6,\"commit_seconds\":0.01,"
      "\"time_io\":12.5,\"ior_runs\":2,\"faulted\":false}\n"
      "{\"t\":1.0,\"event\":\"cell_claim\",\"worker\":0,\"cell\":\"m @ D\","
      "\"key\":\"k3\"}\n"
      "{\"t\":1.1,\"event\":\"cell_failed\",\"worker\":1,\"cell\":\"m @ C\","
      "\"key\":\"k2\",\"seconds\":0.7,\"error\":\"boom\"}\n"
      "{\"t\":1.2,\"event\":\"cell_claim\",\"worker\":1,\"cell\":\"m @ E\","
      "\"key\":\"k4\"}\n"
      "{\"t\":1.3,\"event\":\"cell_com";  // torn by the kill
  const auto pm = sweep::analyzeJournal(obs::parseJournal(journal));
  EXPECT_EQ(pm.schema, "iop-journal/1");
  EXPECT_EQ(pm.pid, 4242);
  EXPECT_EQ(pm.campaign, "pm-test");
  EXPECT_EQ(pm.jobs, 2);
  EXPECT_EQ(pm.cells, 6u);
  EXPECT_EQ(pm.pending, 5u);
  EXPECT_EQ(pm.workers, 2u);
  EXPECT_EQ(pm.cacheHits, 1u);
  EXPECT_EQ(pm.claims, 4u);
  EXPECT_EQ(pm.commits, 1u);
  EXPECT_EQ(pm.failures, 1u);
  EXPECT_EQ(pm.badLines, 1u);
  EXPECT_FALSE(pm.complete);
  EXPECT_EQ(pm.lastEventName, "cell_claim");
  ASSERT_EQ(pm.inFlight.size(), 2u);  // claimed, never resolved
  EXPECT_EQ(pm.inFlight[0].cell, "m @ D");
  EXPECT_EQ(pm.inFlight[0].worker, 0u);
  EXPECT_EQ(pm.inFlight[1].cell, "m @ E");
  EXPECT_EQ(pm.inFlight[1].worker, 1u);

  const std::string report = sweep::renderPostmortem(pm, "j.jsonl");
  EXPECT_NE(report.find("INCOMPLETE"), std::string::npos);
  EXPECT_NE(report.find("m @ D"), std::string::npos);
  EXPECT_NE(report.find("m @ E"), std::string::npos);
  EXPECT_NE(report.find("resume"), std::string::npos);

  // A journal ending in run_complete analyzes as complete.
  const auto done = sweep::analyzeJournal(obs::parseJournal(
      "{\"t\":0.0,\"event\":\"journal_start\",\"schema\":\"iop-journal/1\","
      "\"unix_ms\":1,\"pid\":1}\n"
      "{\"t\":0.5,\"event\":\"run_complete\",\"cells\":6,\"cache_hits\":1,"
      "\"shared_hits\":0,\"computed\":5,\"failures\":0,\"skipped\":0,"
      "\"quarantined\":0,\"interrupted\":false,\"wall_seconds\":0.5}\n"));
  EXPECT_TRUE(done.complete);
  EXPECT_FALSE(done.interrupted);
  const std::string okReport = sweep::renderPostmortem(done, "j.jsonl");
  EXPECT_NE(okReport.find("run complete"), std::string::npos);
}

TEST(Postmortem, NewestJournalPicksLargestTimestamp) {
  TempDir dir("journal_pick");
  const auto journalDir = dir.path() / "journal";
  std::filesystem::create_directories(journalDir);
  EXPECT_EQ(sweep::newestJournal(dir.path()), std::filesystem::path{});
  std::ofstream(journalDir / "run-999-1.jsonl") << "";
  std::ofstream(journalDir / "run-1700000000001-9.jsonl") << "";
  std::ofstream(journalDir / "run-1700000000002-3.jsonl") << "";
  std::ofstream(journalDir / "notes.txt") << "";  // ignored
  EXPECT_EQ(sweep::newestJournal(dir.path()).filename().string(),
            "run-1700000000002-3.jsonl");
}

/// Set an environment variable for the lifetime of one scope.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const std::string& value) : name_(name) {
    setenv(name, value.c_str(), 1);
  }
  ~ScopedEnv() { unsetenv(name_); }

 private:
  const char* name_;
};

TEST(SweepWatchdog, SoftDeadlineJournalsSlowCellsWithoutFailingThem) {
  // One cell, delayed 300ms past a 50ms soft deadline: the run journals
  // cell_slow (and bumps the slow-cell instruments) but the cell still
  // commits normally.
  const auto campaign =
      resolveTestCampaign("name tiny\napp example\nconfig A\n");
  ASSERT_EQ(campaign.planCells().size(), 1u);
  TempDir dir("watchdog_soft");
  ScopedEnv delay("IOP_SWEEP_TEST_CELL_DELAY_ONCE_MS", "300");

  sweep::TelemetryConfig config;
  config.journalPath = (dir.path() / "journal" / "run-1-1.jsonl").string();
  sweep::SweepTelemetry telemetry(config);
  sweep::CampaignStore store(dir.path());
  sweep::SweepOptions options;
  options.softDeadlineSeconds = 0.05;
  options.telemetry = &telemetry;
  const auto outcome = sweep::runSweep(campaign, store, options);
  telemetry.finish();

  EXPECT_EQ(outcome.computed, 1u);
  EXPECT_EQ(outcome.failures, 0u);
  EXPECT_EQ(outcome.stuck, 0u);
  const std::string journal = readFileText(config.journalPath);
  EXPECT_NE(journal.find("cell_slow"), std::string::npos);
  EXPECT_EQ(journal.find("cell_stuck"), std::string::npos);
  const auto slow = telemetry.counterValue("sweep.cells_slow");
  ASSERT_TRUE(slow.has_value());
  EXPECT_EQ(*slow, 1u);
}

TEST(SweepWatchdog, HardDeadlineAbandonsOnceThenRetrySucceeds) {
  // Attempt 1 sleeps 600ms against a 150ms hard deadline and is
  // abandoned; the retry (no delay) succeeds, so the run completes with
  // stuck=1, no failures, a quarantine marker, and — the core invariant
  // — a store byte-identical to one written with the watchdog off.
  const auto campaign =
      resolveTestCampaign("name tiny\napp example\nconfig A\n");
  TempDir plain("watchdog_off");
  sweep::CampaignStore plainStore(plain.path());
  sweep::runSweep(campaign, plainStore, {});
  const auto expected = snapshotTree(plain.path());

  TempDir dir("watchdog_hard");
  ScopedEnv delay("IOP_SWEEP_TEST_CELL_DELAY_ONCE_MS", "600");
  sweep::TelemetryConfig config;
  config.journalPath = (dir.path() / "journal" / "run-1-1.jsonl").string();
  sweep::SweepTelemetry telemetry(config);
  sweep::CampaignStore store(dir.path());
  sweep::SweepOptions options;
  options.hardDeadlineSeconds = 0.15;
  options.telemetry = &telemetry;
  const auto outcome = sweep::runSweep(campaign, store, options);
  telemetry.finish();

  EXPECT_EQ(outcome.stuck, 1u);
  EXPECT_EQ(outcome.computed, 1u);
  EXPECT_EQ(outcome.failures, 0u);
  EXPECT_EQ(outcome.cells[0].status,
            sweep::CellOutcome::Status::Computed);
  const std::string key = campaign.planCells()[0].key;
  EXPECT_TRUE(std::filesystem::exists(dir.path() / "quarantine" /
                                      (key + ".stuck.1")));

  // Byte-identical store, the stuck marker and journal aside.
  auto observed = snapshotTree(dir.path());
  for (auto it = observed.begin(); it != observed.end();) {
    if (it->first.rfind("journal", 0) == 0 ||
        it->first.rfind("quarantine", 0) == 0) {
      it = observed.erase(it);
    } else {
      ++it;
    }
  }
  EXPECT_EQ(observed, expected);

  // The journal records the abandonment and the postmortem counts it
  // without leaving the claim open.
  const std::string journal = readFileText(config.journalPath);
  EXPECT_NE(journal.find("cell_stuck"), std::string::npos);
  const auto pm =
      sweep::analyzeJournal(obs::loadJournal(config.journalPath));
  EXPECT_EQ(pm.stuck, 1u);
  EXPECT_TRUE(pm.inFlight.empty());
  const auto stuck = telemetry.counterValue("sweep.cells_stuck");
  ASSERT_TRUE(stuck.has_value());
  EXPECT_EQ(*stuck, 1u);

  // The abandoned evaluation thread may still be sleeping; give it time
  // to drain before the campaign (which it references) is destroyed.
  std::this_thread::sleep_for(std::chrono::milliseconds(700));
}

TEST(SweepWatchdog, SecondTimeoutFailsTheCellTerminally) {
  // Both attempts overrun the deadline: the cell fails with a "stuck"
  // error instead of retrying forever.
  const auto campaign =
      resolveTestCampaign("name tiny\napp example\nconfig A\n");
  TempDir dir("watchdog_terminal");
  ScopedEnv delay("IOP_SWEEP_TEST_CELL_DELAY_MS", "500");
  sweep::CampaignStore store(dir.path());
  sweep::SweepOptions options;
  options.hardDeadlineSeconds = 0.1;
  const auto outcome = sweep::runSweep(campaign, store, options);

  EXPECT_EQ(outcome.stuck, 2u);  // both attempts
  EXPECT_EQ(outcome.failures, 1u);
  EXPECT_EQ(outcome.cells[0].status, sweep::CellOutcome::Status::Failed);
  EXPECT_NE(outcome.cells[0].error.find("stuck"), std::string::npos);
  const std::string key = campaign.planCells()[0].key;
  EXPECT_TRUE(std::filesystem::exists(dir.path() / "quarantine" /
                                      (key + ".stuck.2")));
  std::this_thread::sleep_for(std::chrono::milliseconds(1100));
}

#ifdef __linux__
TEST(RuntimeTelemetry, JournalDisablesItselfOnDiskFullInsteadOfThrowing) {
  // /dev/full accepts the open and fails every flush with ENOSPC — the
  // exact failure mode the journal must absorb: one stderr warning, the
  // disabled flag, and the run carries on.
  if (!std::filesystem::exists("/dev/full")) {
    GTEST_SKIP() << "/dev/full not available";
  }
  obs::RunJournal journal("/dev/full");
  journal.event("campaign_start", "\"campaign\":\"x\"");
  EXPECT_TRUE(journal.disabled());
  journal.event("cell_commit");  // silently dropped, no throw
  EXPECT_TRUE(journal.disabled());
}

TEST(RuntimeTelemetry, SweepSurvivesJournalOnFullDisk) {
  // End to end: a full-disk journal never fails the campaign, and the
  // one-time sweep.journal_disabled counter records that it happened.
  if (!std::filesystem::exists("/dev/full")) {
    GTEST_SKIP() << "/dev/full not available";
  }
  const auto campaign = resolveTestCampaign();
  TempDir dir("journal_enospc");
  sweep::TelemetryConfig config;
  config.journalPath = "/dev/full";
  sweep::SweepTelemetry telemetry(config);
  telemetry.campaignStart(campaign.spec.name, "cfg", 2);
  sweep::CampaignStore store(dir.path());
  sweep::SweepOptions options;
  options.jobs = 2;
  options.telemetry = &telemetry;
  const auto outcome = sweep::runSweep(campaign, store, options);
  telemetry.finish();

  EXPECT_EQ(outcome.computed, 12u);
  EXPECT_EQ(outcome.failures, 0u);
  ASSERT_NE(telemetry.journal(), nullptr);
  EXPECT_TRUE(telemetry.journal()->disabled());
  const auto disabled = telemetry.counterValue("sweep.journal_disabled");
  ASSERT_TRUE(disabled.has_value());
  EXPECT_EQ(*disabled, 1u);  // noted once, not once per event
}
#endif  // __linux__

}  // namespace
