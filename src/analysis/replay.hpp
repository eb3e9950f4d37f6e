// Phase replay with IOR (Section III-B).
//
// Each phase of the I/O model is mapped to one IOR invocation:
//    s  = 1
//    b  = rep * rs        (per-process block: the phase's per-rank bytes)
//    t  = rs
//    NP = np(phase)
//    -F when the access type is unique (one file per process)
//    -c when the phase's operations are collective
// The access mode falls back to sequential for strided patterns, exactly
// the limitation the paper hits with BT-IO ("IOR is not working in this
// mode, we have selected the sequential access mode").
//
// Replaying on a fresh instance of a target configuration yields BW_CH per
// operation; for multi-op phases BW_CH is the average over the phase's
// operations (the paper's rule, and the source of its reported ~50% error
// on MADbench2's phase 3).
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "configs/configs.hpp"
#include "core/iomodel.hpp"
#include "ior/ior.hpp"

namespace iop::analysis {

/// Factory producing a *fresh* (cold) instance of the target configuration
/// for each measurement.
using ConfigBuilder = std::function<configs::ClusterConfig()>;

struct ReplayPlanEntry {
  int phaseId = 0;
  ior::IorParams params;
  bool hasWrite = false;
  bool hasRead = false;
  bool accessModeFallback = false;  ///< strided collapsed to sequential
};

/// Build the IOR parameters for one phase (Section III-B mapping).
ReplayPlanEntry planReplay(const core::IOModel& model,
                           const core::Phase& phase,
                           const std::string& mount);

struct PhaseBandwidth {
  double writeBandwidth = 0;  ///< bytes/s, 0 when the phase has no writes
  double readBandwidth = 0;
  /// BW_CH: the op bandwidth, or the average for multi-op phases.
  double characterized = 0;
};

/// Bandwidth cache so identical phases (e.g. BT-IO's 50 write phases)
/// replay once.
class Replayer {
 public:
  Replayer(ConfigBuilder builder, std::string mount)
      : builder_(std::move(builder)), mount_(std::move(mount)) {}

  /// Measure (or fetch cached) BW_CH for a phase.
  PhaseBandwidth measure(const core::IOModel& model,
                         const core::Phase& phase);

  std::size_t benchmarkRuns() const noexcept { return runs_; }

 private:
  /// Memoization key: phases with identical IOR parameters share one
  /// benchmark execution.  The mount is the Replayer's own, so it is not
  /// part of the key.
  struct Key {
    std::uint64_t blockSize;
    std::uint64_t transferSize;
    int segments;
    int np;
    bool uniqueFilePerProc;
    bool collective;
    ior::AccessMode accessMode;
    bool hasWrite;
    bool hasRead;
    auto operator<=>(const Key&) const = default;
  };
  static Key keyOf(const ReplayPlanEntry& entry) noexcept;

  ConfigBuilder builder_;
  std::string mount_;
  std::map<Key, PhaseBandwidth> cache_;
  std::size_t runs_ = 0;
};

// ------------------------------------------------------------- Estimation

/// Eq. (2): Time_io(phase) = weight / BW_CH.
struct PhaseEstimate {
  int phaseId = 0;
  int familyId = 0;
  std::uint64_t weightBytes = 0;
  double bandwidthCH = 0;
  double timeCH = 0;
};

struct Estimate {
  std::vector<PhaseEstimate> phases;
  double totalTimeSec = 0;  ///< eq. (1): sum over phases

  /// Grouped rows in the paper's "Phase 1-50" / "Phase 51" style: one row
  /// per phase family.
  struct FamilyRow {
    int firstPhase = 0;
    int lastPhase = 0;
    std::uint64_t weightBytes = 0;
    double timeCH = 0;
  };
  std::vector<FamilyRow> familyRows() const;
};

/// Estimate the application's I/O time on a target configuration using
/// only the model + IOR (the application itself is never run there).
Estimate estimateIoTime(const core::IOModel& model, Replayer& replayer);

}  // namespace iop::analysis
