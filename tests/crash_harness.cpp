// Crash-consistency harness: enumerate every durability barrier of a
// small campaign + archive sequence, simulate a crash at each one in a
// forked child (util::vfs tears the op and exits with kCrashExitCode),
// then assert that iop-fsck + an idempotent re-run converge on the
// byte-identical tree an uninterrupted run produces.  Also the
// cross-process commit-race test on a shared sweep::CellPool: a writer
// that crashes mid-commit never damages what a surviving writer
// committed.
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "obs/archive.hpp"
#include "obs/capture.hpp"
#include "sweep/campaign.hpp"
#include "sweep/executor.hpp"
#include "sweep/fsck.hpp"
#include "sweep/store.hpp"
#include "util/vfs.hpp"

namespace {

using namespace iop;

constexpr const char* kCampaignText =
    "name crash-test\n"
    "app example\n"
    "config A\n"
    "config B\n";

class TempDir {
 public:
  explicit TempDir(const std::string& name)
      : path_(std::filesystem::temp_directory_path() /
              ("iop_crash_harness_" + name)) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~TempDir() { std::filesystem::remove_all(path_); }
  const std::filesystem::path& path() const { return path_; }

 private:
  std::filesystem::path path_;
};

/// All files under `root` as relative-path -> bytes, excluding the
/// forensic directories whose contents legitimately differ after a
/// recovered crash (quarantined damage, per-run journals).
std::map<std::string, std::string> snapshotTree(
    const std::filesystem::path& root) {
  std::map<std::string, std::string> tree;
  if (!std::filesystem::exists(root)) return tree;
  for (auto it = std::filesystem::recursive_directory_iterator(root);
       it != std::filesystem::recursive_directory_iterator(); ++it) {
    const std::string name = it->path().filename().string();
    if (it->is_directory() && (name == "quarantine" || name == "journal")) {
      it.disable_recursion_pending();
      continue;
    }
    if (!it->is_regular_file()) continue;
    std::ifstream in(it->path(), std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    tree[it->path().lexically_relative(root).string()] = buffer.str();
  }
  return tree;
}

/// The persistence sequence under test: resolve (model cache under the
/// store), run the 2-cell campaign, then archive the first cell's
/// capture.  Idempotent by construction — the campaign is resumable and
/// the archive add is skipped when the entry already landed — so the
/// same call doubles as the post-crash recovery step.
void runSequence(const std::filesystem::path& storeDir,
                 const std::filesystem::path& archiveDir) {
  auto spec = sweep::parseCampaign(kCampaignText, ".");
  sweep::ResolveOptions resolve;
  resolve.modelCacheDirs.push_back(storeDir / "models");
  auto campaign = sweep::resolveCampaign(spec, resolve);

  sweep::CampaignStore store(storeDir);
  sweep::SweepOptions options;
  options.jobs = 1;  // single writer: the Nth barrier op is always the
                     // same op, so crash points are reproducible
  const auto outcome = sweep::runSweep(campaign, store, options);
  if (outcome.failures != 0) {
    throw std::runtime_error("sweep failed");
  }

  obs::Archive archive(archiveDir);
  const std::string key = campaign.planCells()[0].key;
  const auto capture =
      obs::RunCapture::load(store.capturePath(key).string());
  bool archived = false;
  for (const auto& entry : archive.list()) {
    if (entry.kind == "capture" && entry.label == "crash-harness") {
      archived = true;
    }
  }
  if (!archived) archive.addCapture(capture, "crash-harness");
}

/// Fork a child that arms the crash injector at `point` and runs the
/// sequence; returns the child's exit status (kCrashExitCode when the
/// injected crash fired, 0 when `point` lies beyond the run's last
/// barrier op).
int runCrashChild(std::uint64_t point,
                  const std::filesystem::path& storeDir,
                  const std::filesystem::path& archiveDir) {
  const pid_t pid = fork();
  if (pid == 0) {
    util::vfs::setCrashMode(-1);  // derive the tear mode from the op
    util::vfs::resetBarrierOps();
    util::vfs::setCrashPoint(point);
    try {
      runSequence(storeDir, archiveDir);
    } catch (...) {
      std::_Exit(99);
    }
    std::_Exit(0);
  }
  int status = 0;
  waitpid(pid, &status, 0);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(CrashHarness, EveryCrashPointConvergesAfterFsckAndRerun) {
  // The uninterrupted reference tree.
  TempDir refStore("ref_store");
  TempDir refArchive("ref_archive");
  runSequence(refStore.path(), refArchive.path());
  const auto expectedStore = snapshotTree(refStore.path());
  const auto expectedArchive = snapshotTree(refArchive.path());
  ASSERT_FALSE(expectedStore.empty());
  ASSERT_FALSE(expectedArchive.empty());

  sweep::FsckOptions fsck;
  fsck.deep = true;
  fsck.expectedCampaign =
      sweep::parseCampaign(kCampaignText, ".").canonicalText();

  TempDir store("store");
  TempDir archive("archive");
  std::uint64_t points = 0;
  bool completed = false;
  for (std::uint64_t p = 1; p <= 64; ++p) {
    std::filesystem::remove_all(store.path());
    std::filesystem::remove_all(archive.path());
    const int rc = runCrashChild(p, store.path(), archive.path());
    if (rc == 0) {
      completed = true;  // p is past the run's last barrier op
      break;
    }
    ASSERT_EQ(rc, util::vfs::kCrashExitCode)
        << "crash point " << p << " died unexpectedly";
    ++points;

    // Recovery: fsck both trees, then the same (idempotent) sequence.
    const auto storeReport =
        sweep::fsckCampaignStore(store.path(), fsck);
    EXPECT_FALSE(storeReport.unrecoverable())
        << storeReport.render("store, crash point " +
                              std::to_string(p));
    sweep::FsckOptions archiveFsck = fsck;
    archiveFsck.expectedCampaign.clear();
    const auto archiveReport =
        sweep::fsckArchive(archive.path(), archiveFsck);
    EXPECT_FALSE(archiveReport.unrecoverable())
        << archiveReport.render("archive, crash point " +
                                std::to_string(p));
    runSequence(store.path(), archive.path());

    EXPECT_EQ(snapshotTree(store.path()), expectedStore)
        << "store diverged after crash point " << p;
    EXPECT_EQ(snapshotTree(archive.path()), expectedArchive)
        << "archive diverged after crash point " << p;

    // A second fsck pass over a recovered tree is always clean.
    EXPECT_TRUE(sweep::fsckCampaignStore(store.path(), fsck).clean());
    EXPECT_TRUE(
        sweep::fsckArchive(archive.path(), archiveFsck).clean());
  }
  EXPECT_TRUE(completed) << "the sweep never ran crash-free";
  // model, campaign.txt, 2 cells, 2 captures, MANIFEST.txt, archive
  // object, archive manifest: at least that many distinct crash points.
  EXPECT_GE(points, 8u);
}

TEST(CrashHarness, SharedStoreCommitRaceSurvivesPartnerCrash) {
  // Two processes commit the same content-addressed key; one dies
  // mid-commit.  Whatever the crash leaves, the survivor's data must be
  // recoverable: intact for tears that never touched the final path,
  // quarantined-and-recomputable for a torn rename over it.
  auto spec = sweep::parseCampaign(kCampaignText, ".");
  auto campaign = sweep::resolveCampaign(spec);
  const auto cellSpec = campaign.planCells()[0];
  const auto cell = sweep::evaluateCell(campaign, cellSpec);
  const std::string expected = cell.render();

  TempDir dir("shared_race");
  sweep::CellPool shared(dir.path());

  const auto commitInChild = [&](int crashMode) {
    const pid_t pid = fork();
    if (pid == 0) {
      if (crashMode >= 0) {
        util::vfs::setCrashMode(crashMode);
        util::vfs::resetBarrierOps();
        util::vfs::setCrashPoint(1);  // saveCell is one barrier op
      }
      try {
        sweep::CellPool child(dir.path());
        child.saveCell(cell);
      } catch (...) {
        std::_Exit(99);
      }
      std::_Exit(0);
    }
    int status = 0;
    waitpid(pid, &status, 0);
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  };

  // The survivor commits first (cross-process, no injection).
  ASSERT_EQ(commitInChild(-1), 0);
  ASSERT_TRUE(shared.hasCell(cellSpec.key));

  // Tear modes 1 (orphaned temp) and 2 (op dropped) never touch the
  // committed path: the survivor's cell stays byte-perfect.
  for (const int mode : {1, 2}) {
    ASSERT_EQ(commitInChild(mode), util::vfs::kCrashExitCode);
    const auto loaded = shared.tryLoadCell(cellSpec.key);
    ASSERT_TRUE(loaded.has_value()) << "tear mode " << mode;
    EXPECT_EQ(loaded->render(), expected);
  }

  // Mode 1 left an orphaned temp from a dead writer; fsck sweeps it.
  const auto report = sweep::fsckSharedStore(dir.path(), {});
  EXPECT_EQ(report.exitCode(), 1);
  bool sawOrphan = false;
  for (const auto& f : report.findings) {
    sawOrphan |= f.damage == sweep::FsckDamage::OrphanTemp;
  }
  EXPECT_TRUE(sawOrphan);

  // Tear mode 0 renames truncated bytes over the survivor's cell — the
  // one genuinely destructive interleaving.  The checksum seal catches
  // it, the load quarantines, and recomputing the pure-function cell
  // restores the store.
  ASSERT_EQ(commitInChild(0), util::vfs::kCrashExitCode);
  std::string whyBad;
  EXPECT_FALSE(shared.tryLoadCell(cellSpec.key, &whyBad).has_value());
  EXPECT_FALSE(whyBad.empty());
  shared.saveCell(sweep::evaluateCell(campaign, cellSpec));
  const auto restored = shared.tryLoadCell(cellSpec.key);
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->render(), expected);
}

}  // namespace
