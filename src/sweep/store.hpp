// On-disk result stores: the content-addressed cell cache that makes
// sweeps resumable and re-runs free.
//
// A CellPool owns what every store shares, under its root:
//   cells/<key>.cell    one committed cell result ("iop-cell v1" text,
//                       key-checked on load)
//   models/<key>.model  characterization models keyed by modelCacheKey()
//   quarantine/         cell files that failed their checksum, parse or
//                       key check on load, moved aside (not deleted) and
//                       recomputed
// A bare pool is the campaign-independent shared store (iop-sweep
// --shared-store).  A CampaignStore is a pool bound to one campaign and
// adds:
//   campaign.txt        canonical campaign text (identity of the store)
//   captures/<key>.cap  the cell's diffable run capture (iop-capture v2;
//                       stores written by older builds hold v1 text,
//                       which still reads)
//   MANIFEST.txt        the grid in canonical cell order, written serially
//                       after every run — byte-identical for any -j
//
// Cell files are written atomically (temp + rename) with fully
// deterministic contents, so a store produced by N workers is
// byte-identical to one produced serially, and a killed run leaves only
// whole, reusable cells behind.
#pragma once

#include <cstdint>
#include <filesystem>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "obs/capture.hpp"
#include "sweep/campaign.hpp"
#include "util/fsatomic.hpp"

namespace iop::sweep {

class SweepTelemetry;

/// One committed campaign cell: the estimate for (model, config, faults).
struct CellResult {
  struct PhaseRow {
    int id = 0;
    int familyId = 0;
    std::uint64_t weightBytes = 0;
    double bandwidthCH = 0;  ///< bytes/s
    double timeCH = 0;       ///< seconds
  };

  std::string key;
  std::string modelLabel;
  std::string configLabel;
  double degradeDisks = 1.0;
  double degradeNet = 1.0;
  std::string estimator;
  int np = 0;
  std::uint64_t weightBytes = 0;  ///< total model weight
  double timeIo = 0;              ///< eq. (1): estimated total I/O time
  std::size_t iorRuns = 0;        ///< IOR executions the estimate cost
  std::vector<PhaseRow> phases;
  // Degraded-mode cells only (faultSeed > 0); absent from healthy cells
  // so their files stay byte-identical to pre-fault stores.
  std::string faultLabel;
  std::uint64_t faultSeed = 0;
  std::uint64_t faultRetries = 0;
  std::uint64_t faultFailovers = 0;
  double faultStallSeconds = 0;
  std::string faultError;  ///< run died at phase level (retries exhausted)

  bool faulted() const noexcept { return faultSeed != 0; }
  bool faultFailed() const noexcept { return !faultError.empty(); }

  /// Deterministic text serialization ("iop-cell v1") ending in a
  /// "checksum <16hex>" line (FNV over everything before it) so torn or
  /// bit-flipped store files are detected on load.
  std::string render() const;
  /// Throws on malformed text; files without a checksum line (written
  /// before checksums existed) are accepted unverified.
  static CellResult parse(const std::string& text);

  /// Weight-normalized bandwidth of the whole run: weight / Time_io.
  double effectiveBandwidth() const noexcept {
    return timeIo > 0 ? static_cast<double>(weightBytes) / timeIo : 0;
  }
};

/// Project a cell onto the obs capture schema so every campaign cell is
/// diffable with iop-diff (app = model label, config = config label,
/// makespan = estimated Time_io).
obs::RunCapture makeCellCapture(const CellResult& cell);

/// Atomic temp-and-rename file replacement (implementation lives in
/// util/fsatomic.hpp so the obs capture archive shares it).
using util::writeFileAtomically;

/// A content-addressed pool of committed cells (and characterization
/// models) under one root; see the layout above.  A cell's key already
/// captures everything that determines its result, so any campaign may
/// deposit into or draw from any pool.
class CellPool {
 public:
  explicit CellPool(std::filesystem::path root);

  const std::filesystem::path& root() const noexcept { return root_; }
  std::filesystem::path cellPath(const std::string& key) const;
  /// Model cache directory (for ResolveOptions::modelCacheDirs).
  std::filesystem::path modelDir() const;

  bool hasCell(const std::string& key) const;
  /// Load a cell, treating corruption as a miss: a cell that fails to
  /// parse, checksum or key-check is moved to quarantine/ (for forensics)
  /// and std::nullopt is returned so the caller recomputes it.
  std::optional<CellResult> tryLoadCell(const std::string& key,
                                        std::string* whyBad = nullptr) const;
  /// Atomic (temp + rename), race-safe commit; contents depend only on
  /// `cell`.  Directories are created on first write.
  void saveCell(const CellResult& cell) const;

  /// Count store operations (commits, bytes, loads, quarantines) through
  /// `telemetry` under `<prefix>.`.  Observation-only; null disables.
  void setTelemetry(SweepTelemetry* telemetry, std::string prefix);

 protected:
  SweepTelemetry* telemetry_ = nullptr;
  std::string metricsPrefix_;

 private:
  std::filesystem::path root_;
};

/// A pool bound to one campaign, plus its captures and manifest.
class CampaignStore : public CellPool {
 public:
  enum class InitResult {
    Created,   ///< fresh store directory
    Matched,   ///< existing store, same campaign: cells are reusable
    Replaced,  ///< existing store, different campaign: wiped (force)
  };

  using CellPool::CellPool;

  /// Bind the store to a campaign.  An existing store whose campaign.txt
  /// differs from `canonicalText` throws unless `replaceOnMismatch`, in
  /// which case all cached cells are dropped.
  InitResult initialize(const std::string& canonicalText,
                        bool replaceOnMismatch = false);

  std::filesystem::path capturePath(const std::string& key) const;
  std::filesystem::path manifestPath() const;

  /// Atomic commit of the cell's capture, in the v2 encoding.
  void saveCapture(const std::string& key,
                   const obs::RunCapture& capture) const;

  /// Serially rewrite MANIFEST.txt for the given cells, in the canonical
  /// order `cells` is already in.
  void writeManifest(const ResolvedCampaign& campaign,
                     const std::vector<CellSpec>& cells) const;

  /// Drop cell/capture files whose key is not in `liveKeys`; returns the
  /// number of files removed.
  std::size_t gc(const std::set<std::string>& liveKeys) const;
};

}  // namespace iop::sweep
