// iop::sweep fsck — damage classification, quarantine/repair semantics,
// exit codes, and the second-pass-is-clean invariant over campaign
// stores, shared stores and capture archives.
#include <sys/wait.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "obs/archive.hpp"
#include "sweep/campaign.hpp"
#include "sweep/executor.hpp"
#include "sweep/fsck.hpp"
#include "sweep/store.hpp"

namespace {

using namespace iop;

constexpr const char* kCampaignText =
    "name fsck-test\n"
    "app example\n"
    "config A\n"
    "config B\n";

sweep::ResolvedCampaign resolveTestCampaign() {
  return sweep::resolveCampaign(sweep::parseCampaign(kCampaignText, "."));
}

class TempDir {
 public:
  explicit TempDir(const std::string& name)
      : path_(std::filesystem::temp_directory_path() /
              ("iop_fsck_test_" + name)) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~TempDir() { std::filesystem::remove_all(path_); }
  const std::filesystem::path& path() const { return path_; }

 private:
  std::filesystem::path path_;
};

std::string readText(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void writeText(const std::filesystem::path& path, const std::string& text) {
  std::filesystem::create_directories(path.parent_path());
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
}

/// A pid that is certainly dead: fork a child that exits immediately and
/// reap it.
pid_t deadPid() {
  const pid_t pid = fork();
  if (pid == 0) _exit(0);
  int status = 0;
  waitpid(pid, &status, 0);
  return pid;
}

/// Run the 2-cell test campaign into `root` and return the campaign.
sweep::ResolvedCampaign populateStore(const std::filesystem::path& root) {
  auto campaign = resolveTestCampaign();
  sweep::CampaignStore store(root);
  sweep::SweepOptions options;
  const auto outcome = sweep::runSweep(campaign, store, options);
  EXPECT_EQ(outcome.failures, 0u);
  return campaign;
}

bool hasDamage(const sweep::FsckReport& report, sweep::FsckDamage damage) {
  for (const auto& f : report.findings) {
    if (f.damage == damage) return true;
  }
  return false;
}

TEST(Fsck, MissingRootIsClean) {
  const auto report =
      sweep::fsckCampaignStore("/no/such/iop/fsck/root", {});
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.exitCode(), 0);
  EXPECT_EQ(sweep::fsckArchive("/no/such/iop/fsck/root", {}).exitCode(), 0);
}

TEST(Fsck, CleanStorePassesQuickAndDeep) {
  TempDir dir("clean");
  populateStore(dir.path());
  sweep::FsckOptions quick;
  EXPECT_TRUE(sweep::fsckCampaignStore(dir.path(), quick).clean());
  sweep::FsckOptions deep;
  deep.deep = true;
  const auto report = sweep::fsckCampaignStore(dir.path(), deep);
  EXPECT_TRUE(report.clean());
  EXPECT_GT(report.scanned, 0u);
  EXPECT_NE(report.render("t").find("clean"), std::string::npos);
}

TEST(Fsck, QuarantinesTornCell) {
  TempDir dir("torn_cell");
  populateStore(dir.path());
  const auto bad = dir.path() / "cells" / "0123456789abcdef.cell";
  writeText(bad, "not a cell\n");

  sweep::FsckOptions options;
  options.deep = true;
  const auto report = sweep::fsckCampaignStore(dir.path(), options);
  EXPECT_EQ(report.exitCode(), 1);
  EXPECT_TRUE(hasDamage(report, sweep::FsckDamage::TornCell));
  EXPECT_FALSE(std::filesystem::exists(bad));
  EXPECT_TRUE(std::filesystem::exists(dir.path() / "quarantine" /
                                      "0123456789abcdef.cell"));
  EXPECT_TRUE(sweep::fsckCampaignStore(dir.path(), options).clean());
}

TEST(Fsck, ClassifiesChecksumMismatchSeparatelyFromTorn) {
  TempDir dir("checksum");
  const auto campaign = populateStore(dir.path());
  const auto key = campaign.planCells()[0].key;
  const auto cellPath = dir.path() / "cells" / (key + ".cell");
  // Flip one payload byte while keeping the structure (and the seal)
  // intact: the parser reaches the checksum and rejects it.
  std::string text = readText(cellPath);
  const auto pos = text.find("time-io");
  ASSERT_NE(pos, std::string::npos);
  text[text.find_first_of("0123456789", pos)] ^= 1;
  writeText(cellPath, text);

  sweep::FsckOptions options;
  options.deep = true;
  const auto report = sweep::fsckCampaignStore(dir.path(), options);
  EXPECT_EQ(report.exitCode(), 1);
  EXPECT_TRUE(hasDamage(report, sweep::FsckDamage::ChecksumMismatch));
  EXPECT_FALSE(std::filesystem::exists(cellPath));
}

TEST(Fsck, DetectsCellUnderWrongKey) {
  TempDir dir("wrong_key");
  const auto campaign = populateStore(dir.path());
  const auto plan = campaign.planCells();
  // A valid sealed cell copied over another key's file: parses, checksums,
  // but holds the wrong key.
  std::filesystem::copy_file(
      dir.path() / "cells" / (plan[0].key + ".cell"),
      dir.path() / "cells" / (plan[1].key + ".cell"),
      std::filesystem::copy_options::overwrite_existing);

  sweep::FsckOptions options;
  options.deep = true;
  const auto report = sweep::fsckCampaignStore(dir.path(), options);
  EXPECT_EQ(report.exitCode(), 1);
  EXPECT_TRUE(hasDamage(report, sweep::FsckDamage::WrongKey));
}

TEST(Fsck, QuarantinesTornModelAndCapture) {
  TempDir dir("torn_model");
  populateStore(dir.path());
  writeText(dir.path() / "models" / "feedfacefeedface.model", "torn");
  // Torn captures are a deep-only finding.
  const auto capture =
      std::filesystem::directory_iterator(dir.path() / "captures")
          ->path();
  writeText(capture, "capture v999\n");

  const auto quick = sweep::fsckCampaignStore(dir.path(), {});
  EXPECT_TRUE(hasDamage(quick, sweep::FsckDamage::TornModel));
  EXPECT_FALSE(hasDamage(quick, sweep::FsckDamage::TornCapture));

  sweep::FsckOptions deep;
  deep.deep = true;
  const auto report = sweep::fsckCampaignStore(dir.path(), deep);
  EXPECT_TRUE(hasDamage(report, sweep::FsckDamage::TornCapture));
  EXPECT_FALSE(std::filesystem::exists(capture));
  EXPECT_TRUE(sweep::fsckCampaignStore(dir.path(), deep).clean());
}

TEST(Fsck, TornCampaignPrefixQuarantinedDifferentCampaignKept) {
  TempDir dir("campaign");
  populateStore(dir.path());
  const std::string canonical =
      sweep::parseCampaign(kCampaignText, ".").canonicalText();
  ASSERT_EQ(readText(dir.path() / "campaign.txt"), canonical);

  // A strict prefix is a torn write: quarantined so resume can rebind.
  writeText(dir.path() / "campaign.txt",
            canonical.substr(0, canonical.size() / 2));
  sweep::FsckOptions options;
  options.expectedCampaign = canonical;
  const auto torn = sweep::fsckCampaignStore(dir.path(), options);
  EXPECT_TRUE(hasDamage(torn, sweep::FsckDamage::TornCampaignFile));
  EXPECT_FALSE(std::filesystem::exists(dir.path() / "campaign.txt"));

  // A complete but *different* campaign is not damage: the store's
  // wrong-campaign guard (initialize throwing) must stay in force.
  writeText(dir.path() / "campaign.txt",
            sweep::parseCampaign("name other\napp example\nconfig A\n", ".")
                .canonicalText());
  const auto different = sweep::fsckCampaignStore(dir.path(), options);
  EXPECT_FALSE(hasDamage(different, sweep::FsckDamage::TornCampaignFile));
  EXPECT_TRUE(std::filesystem::exists(dir.path() / "campaign.txt"));
}

TEST(Fsck, SweepsDeadWritersTempsAndKeepsLiveOnes) {
  TempDir dir("temps");
  populateStore(dir.path());
  const auto dead = dir.path() / "cells" /
                    ("a.cell.tmp." + std::to_string(deadPid()) + ".0");
  const auto live = dir.path() / "cells" /
                    ("b.cell.tmp." + std::to_string(getpid()) + ".0");
  writeText(dead, "partial");
  writeText(live, "partial");

  const auto report = sweep::fsckCampaignStore(dir.path(), {});
  EXPECT_TRUE(hasDamage(report, sweep::FsckDamage::OrphanTemp));
  EXPECT_FALSE(std::filesystem::exists(dead));
  EXPECT_TRUE(std::filesystem::exists(live));  // writer still alive
}

TEST(Fsck, TruncatesTornJournalTailOfDeadWriter) {
  TempDir dir("journal");
  populateStore(dir.path());
  const std::string whole = "{\"t\":0.0,\"event\":\"journal_start\"}\n";
  const auto deadJournal =
      dir.path() / "journal" /
      ("run-1000-" + std::to_string(deadPid()) + ".jsonl");
  writeText(deadJournal, whole + "{\"t\":0.1,\"event\":\"cell_cl");
  const auto liveJournal =
      dir.path() / "journal" /
      ("run-2000-" + std::to_string(getpid()) + ".jsonl");
  writeText(liveJournal, whole + "{\"t\":0.1,\"event\":\"cell_cl");

  const auto report = sweep::fsckCampaignStore(dir.path(), {});
  EXPECT_TRUE(hasDamage(report, sweep::FsckDamage::TornJournalTail));
  EXPECT_EQ(readText(deadJournal), whole);  // truncated to the last record
  EXPECT_NE(readText(liveJournal), whole);  // live writer untouched
}

TEST(Fsck, DryRunReportsWithoutTouching) {
  TempDir dir("dry_run");
  populateStore(dir.path());
  const auto bad = dir.path() / "cells" / "0123456789abcdef.cell";
  writeText(bad, "not a cell\n");

  sweep::FsckOptions dry;
  dry.repair = false;
  dry.deep = true;
  const auto report = sweep::fsckCampaignStore(dir.path(), dry);
  EXPECT_EQ(report.exitCode(), 1);  // same findings, same exit code
  EXPECT_TRUE(hasDamage(report, sweep::FsckDamage::TornCell));
  EXPECT_TRUE(std::filesystem::exists(bad));
  EXPECT_FALSE(std::filesystem::exists(dir.path() / "quarantine"));
}

TEST(Fsck, SharedStoreChecksCellsAndModels) {
  TempDir dir("shared");
  sweep::CellPool shared(dir.path());
  // Seed one valid cell through the real commit path.
  auto campaign = resolveTestCampaign();
  const auto cell = campaign.planCells()[0];
  shared.saveCell(sweep::evaluateCell(campaign, cell));
  writeText(dir.path() / "cells" / "0123456789abcdef.cell", "garbage\n");

  sweep::FsckOptions options;
  options.deep = true;
  const auto report = sweep::fsckSharedStore(dir.path(), options);
  EXPECT_EQ(report.exitCode(), 1);
  EXPECT_TRUE(hasDamage(report, sweep::FsckDamage::TornCell));
  // The valid cell survives and the repaired store passes.
  EXPECT_TRUE(shared.hasCell(cell.key));
  EXPECT_TRUE(sweep::fsckSharedStore(dir.path(), options).clean());
}

// -- archive --------------------------------------------------------------

/// Write a manifest entry + matching object; returns the rendered line.
std::string putArchiveEntry(const std::filesystem::path& root,
                            std::uint64_t seq, const std::string& payload,
                            obs::ArchiveEntry* outEntry = nullptr) {
  obs::ArchiveEntry entry;
  entry.seq = seq;
  entry.kind = "bench";
  entry.app = "engine";
  entry.config = "bench";
  entry.np = 0;
  entry.label = "t" + std::to_string(seq);
  entry.hash = obs::archivePayloadHash(payload);
  entry.bytes = payload.size();
  writeText(root / "objects" / entry.objectName(), payload);
  if (outEntry != nullptr) *outEntry = entry;
  return obs::renderArchiveManifestLine(entry);
}

TEST(FsckArchive, TruncatesTornManifestTail) {
  TempDir dir("tail");
  const std::string line = putArchiveEntry(dir.path(), 1, "payload-1");
  writeText(dir.path() / "MANIFEST.jsonl", line + "{\"schema\":\"iop-ar");

  const auto report = sweep::fsckArchive(dir.path(), {});
  EXPECT_EQ(report.exitCode(), 1);
  EXPECT_TRUE(hasDamage(report, sweep::FsckDamage::TornManifestTail));
  EXPECT_EQ(readText(dir.path() / "MANIFEST.jsonl"), line);
  EXPECT_TRUE(sweep::fsckArchive(dir.path(), {}).clean());
}

TEST(FsckArchive, DropsUnparsableManifestLines) {
  TempDir dir("badline");
  const std::string good = putArchiveEntry(dir.path(), 1, "payload-1");
  writeText(dir.path() / "MANIFEST.jsonl",
            good + "{\"schema\":\"not-an-archive\"}\n");

  const auto report = sweep::fsckArchive(dir.path(), {});
  EXPECT_EQ(report.exitCode(), 1);
  EXPECT_TRUE(hasDamage(report, sweep::FsckDamage::BadManifestLine));
  EXPECT_EQ(readText(dir.path() / "MANIFEST.jsonl"), good);
}

TEST(FsckArchive, MissingReferencedObjectIsUnrecoverable) {
  TempDir dir("missing");
  obs::ArchiveEntry entry;
  const std::string line =
      putArchiveEntry(dir.path(), 1, "payload-1", &entry);
  writeText(dir.path() / "MANIFEST.jsonl", line);
  std::filesystem::remove(dir.path() / "objects" / entry.objectName());

  const auto report = sweep::fsckArchive(dir.path(), {});
  EXPECT_EQ(report.exitCode(), 2);
  EXPECT_TRUE(report.unrecoverable());
  EXPECT_TRUE(hasDamage(report, sweep::FsckDamage::MissingObject));
  EXPECT_NE(report.render("t").find("UNRECOVERABLE"), std::string::npos);
  // Repair drops the entry so the rest of the archive stays usable.
  EXPECT_EQ(readText(dir.path() / "MANIFEST.jsonl"), "");
  EXPECT_TRUE(sweep::fsckArchive(dir.path(), {}).clean());
}

TEST(FsckArchive, DeepCatchesCorruptObjectPayload) {
  TempDir dir("corrupt");
  obs::ArchiveEntry entry;
  const std::string line =
      putArchiveEntry(dir.path(), 1, "payload-1", &entry);
  writeText(dir.path() / "MANIFEST.jsonl", line);
  writeText(dir.path() / "objects" / entry.objectName(), "bitflipped");

  // The quick check trusts object names; only the deep pass re-hashes.
  EXPECT_TRUE(sweep::fsckArchive(dir.path(), {}).clean());

  sweep::FsckOptions deep;
  deep.deep = true;
  const auto report = sweep::fsckArchive(dir.path(), deep);
  EXPECT_EQ(report.exitCode(), 2);
  EXPECT_TRUE(hasDamage(report, sweep::FsckDamage::CorruptObject));
  EXPECT_TRUE(std::filesystem::exists(dir.path() / "quarantine" /
                                      entry.objectName()));
  EXPECT_TRUE(sweep::fsckArchive(dir.path(), deep).clean());
}

TEST(FsckArchive, TornOrphanObjectsQuarantinedValidOnesKept) {
  TempDir dir("orphans");
  writeText(dir.path() / "MANIFEST.jsonl", "");
  // A valid unreferenced object (a crash between object write and
  // manifest append): kept, a later re-add dedups onto it.
  const std::string payload = "orphan-payload";
  const auto validName = obs::archivePayloadHash(payload) + ".bench.json";
  writeText(dir.path() / "objects" / validName, payload);
  // A torn unreferenced object (name != content): quarantined so a
  // re-add's dedup check does not trust the damaged bytes.
  writeText(dir.path() / "objects" / "00000000deadbeef.bench.json",
            "half-writ");

  const auto report = sweep::fsckArchive(dir.path(), {});
  EXPECT_EQ(report.exitCode(), 1);
  EXPECT_TRUE(hasDamage(report, sweep::FsckDamage::OrphanObject));
  EXPECT_TRUE(std::filesystem::exists(dir.path() / "objects" / validName));
  EXPECT_FALSE(std::filesystem::exists(
      dir.path() / "objects" / "00000000deadbeef.bench.json"));
}

TEST(FsckArchive, ManifestCodecRoundTrips) {
  obs::ArchiveEntry entry;
  entry.seq = 7;
  entry.kind = "capture";
  entry.app = "example";
  entry.config = "A";
  entry.np = 16;
  entry.label = "abc123";
  entry.hash = obs::archivePayloadHash("bytes");
  entry.bytes = 5;
  const std::string line = obs::renderArchiveManifestLine(entry);
  ASSERT_FALSE(line.empty());
  EXPECT_EQ(line.back(), '\n');
  obs::ArchiveEntry parsed;
  ASSERT_TRUE(obs::parseArchiveManifestLine(line, parsed));
  EXPECT_EQ(parsed.seq, entry.seq);
  EXPECT_EQ(parsed.hash, entry.hash);
  EXPECT_EQ(parsed.objectName(), entry.hash + ".capv2");
  EXPECT_FALSE(obs::parseArchiveManifestLine("{\"schema\":\"x\"}", parsed));
  EXPECT_FALSE(obs::parseArchiveManifestLine("torn{", parsed));
}

TEST(Fsck, ReportRenderIsDeterministic) {
  TempDir dir("render");
  populateStore(dir.path());
  writeText(dir.path() / "cells" / "bbbbbbbbbbbbbbbb.cell", "junk\n");
  writeText(dir.path() / "cells" / "aaaaaaaaaaaaaaaa.cell", "junk\n");

  sweep::FsckOptions dry;
  dry.repair = false;
  dry.deep = true;
  const auto a = sweep::fsckCampaignStore(dir.path(), dry);
  const auto b = sweep::fsckCampaignStore(dir.path(), dry);
  EXPECT_EQ(a.render("x"), b.render("x"));
  ASSERT_EQ(a.findings.size(), 2u);
  // Sorted by path: aaaa... before bbbb...
  EXPECT_LT(a.findings[0].path, a.findings[1].path);
  EXPECT_NE(a.render("x").find("torn-cell"), std::string::npos);
}

}  // namespace
