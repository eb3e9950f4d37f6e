// Output checks of the pipeline benchmark: the paper's claims, asserted
// on every pass.  Each check is one operation attempted; a check that
// does not hold is one operation failed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/evaluate.hpp"
#include "core/iomodel.hpp"
#include "sweep/rank.hpp"

namespace perfbench {

class CheckLog {
 public:
  /// Count one check; remember `what` when it fails.
  void expect(bool ok, const std::string& what);

  std::uint64_t attempted() const noexcept { return attempted_; }
  std::uint64_t failed() const noexcept { return failed_; }
  const std::vector<std::string>& failures() const noexcept {
    return failures_;
  }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> failures_;
};

/// Worst eq. 6-7 error over comparison rows.
double worstErrorPct(const std::vector<iop::analysis::ComparisonRow>& rows);

/// BT-IO class D (Table XI): 51 phases, phases 1-50 write, phase 51 read.
void checkBtioPhases(CheckLog& log, const iop::core::IOModel& model,
                     const std::string& where);

/// MADbench2 16p (Table VIII): phases W, R, W-R, W, R weighing
/// 4, 1, 6, 1, 4 GiB.
void checkMadbenchPhases(CheckLog& log, const iop::core::IOModel& model,
                         const std::string& where);

/// Tables XIII/XIV: every estimation error below `limitPct`.
void checkErrorsBelow(CheckLog& log,
                      const std::vector<iop::analysis::ComparisonRow>& rows,
                      double limitPct, const std::string& where);

/// Tables IX/X: every phase's system usage (eq. 5) in (0, 100] percent.
void checkUsage(CheckLog& log,
                const std::vector<iop::analysis::UsageRow>& rows,
                const std::string& where);

/// Table XII: the selected candidate is `expected`.
void checkSelected(CheckLog& log, const std::string& selected,
                   const std::string& expected);

/// Two estimates of one model on one target are identical, phase by
/// phase (a cached re-estimate must reproduce the cold one bit-exactly).
void checkSameEstimate(CheckLog& log, const iop::analysis::Estimate& a,
                       const iop::analysis::Estimate& b,
                       const std::string& where);

/// Attaching observation leaves the simulated makespan bit-identical.
void checkSameMakespan(CheckLog& log, double plain, double observed);

/// A sweep pass: every cell computed (cold) or every cell cached (warm),
/// with no failures.
void checkSweep(CheckLog& log, const iop::sweep::SweepOutcome& outcome,
                bool expectCached);

/// Every rank group of a sweep selects `expectedConfig`.
void checkSweepSelection(CheckLog& log,
                         const std::vector<iop::sweep::RankGroup>& groups,
                         const std::string& expectedConfig);

}  // namespace perfbench
